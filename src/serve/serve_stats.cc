#include "serve/serve_stats.h"

#include <algorithm>
#include <sstream>

namespace tcf {
namespace {

/// Fills the fields derived from `r->latency` and `r->wall_seconds`.
void DeriveLatencyFields(ServeReport* r) {
  r->queries = r->latency.count;
  r->qps = r->wall_seconds > 0
               ? static_cast<double>(r->queries) / r->wall_seconds
               : 0;
  r->mean_us = r->queries > 0
                   ? r->latency.sum / static_cast<double>(r->queries)
                   : 0;
  r->p50_us = HistogramQuantile(r->latency, 0.50);
  r->p90_us = HistogramQuantile(r->latency, 0.90);
  r->p99_us = HistogramQuantile(r->latency, 0.99);
  r->max_us = HistogramQuantile(r->latency, 1.0);
}

}  // namespace

ServeReport ServeReport::Since(const ServeReport& before) const {
  ServeReport d = *this;
  d.wall_seconds = wall_seconds - before.wall_seconds;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    d.latency.buckets[b] -= before.latency.buckets[b];
  }
  d.latency.count -= before.latency.count;
  d.latency.sum -= before.latency.sum;
  DeriveLatencyFields(&d);
  d.trusses_returned -= before.trusses_returned;
  d.cache.hits -= before.cache.hits;
  d.cache.misses -= before.cache.misses;
  d.cache.inserts -= before.cache.inserts;
  d.cache.evictions -= before.cache.evictions;
  d.cache.invalidations -= before.cache.invalidations;
  d.cache.partial_hits -= before.cache.partial_hits;
  d.cache.composed_queries -= before.cache.composed_queries;
  d.cache.admission_rejects -= before.cache.admission_rejects;
  d.connections_accepted -= before.connections_accepted;
  d.bytes_in -= before.bytes_in;
  d.bytes_out -= before.bytes_out;
  d.batches -= before.batches;
  d.batch_queries -= before.batch_queries;
  d.reloads -= before.reloads;
  d.shard_queries -= before.shard_queries;
  d.updates -= before.updates;
  d.update_txs -= before.update_txs;
  d.update_edges -= before.update_edges;
  d.update_dirty_items -= before.update_dirty_items;
  d.update_shards_swapped -= before.update_shards_swapped;
  d.deadline_exceeded -= before.deadline_exceeded;
  d.rate_limited -= before.rate_limited;
  d.shed -= before.shed;
  return d;
}

TextTable ServeReport::ToTable() const {
  TextTable t({"metric", "value"});
  t.AddRow({"queries", TextTable::Num(queries)});
  t.AddRow({"wall time (s)", TextTable::Num(wall_seconds)});
  t.AddRow({"throughput (q/s)", TextTable::Num(qps)});
  t.AddRow({"latency mean (us)", TextTable::Num(mean_us)});
  t.AddRow({"latency p50 (us)", TextTable::Num(p50_us)});
  t.AddRow({"latency p90 (us)", TextTable::Num(p90_us)});
  t.AddRow({"latency p99 (us)", TextTable::Num(p99_us)});
  t.AddRow({"latency max (us)", TextTable::Num(max_us)});
  t.AddRow({"trusses returned", TextTable::Num(trusses_returned)});
  t.AddRow({"cache hit rate", TextTable::Num(cache.HitRate())});
  t.AddRow({"cache hits", TextTable::Num(cache.hits)});
  t.AddRow({"cache misses", TextTable::Num(cache.misses)});
  t.AddRow({"cache entries", TextTable::Num(static_cast<uint64_t>(
                                 cache.entries))});
  t.AddRow({"cache bytes", TextTable::Num(static_cast<uint64_t>(
                               cache.bytes))});
  t.AddRow({"cache evictions", TextTable::Num(cache.evictions)});
  // Partial-reuse counters (subset-composable cache): a "partial hit" is
  // one cached sub-pattern answer reused as a composition building block.
  t.AddRow({"cache partial hits", TextTable::Num(cache.partial_hits)});
  t.AddRow({"cache composed", TextTable::Num(cache.composed_queries)});
  t.AddRow(
      {"cache admission rejects", TextTable::Num(cache.admission_rejects)});
  // Network rows appear only once a transport is attached, so the
  // in-process `tcf serve --workload` report is unchanged.
  if (connections_accepted > 0) {
    t.AddRow({"connections accepted", TextTable::Num(connections_accepted)});
    t.AddRow({"connections active", TextTable::Num(connections_active)});
    t.AddRow({"connections peak", TextTable::Num(connections_peak)});
    t.AddRow({"bytes in", TextTable::Num(bytes_in)});
    t.AddRow({"bytes out", TextTable::Num(bytes_out)});
  }
  if (batches > 0) {
    t.AddRow({"batches", TextTable::Num(batches)});
    t.AddRow({"batch queries", TextTable::Num(batch_queries)});
    t.AddRow({"batch depth (mean)",
              TextTable::Num(static_cast<double>(batch_queries) /
                             static_cast<double>(batches))});
    t.AddRow({"batch depth (max)", TextTable::Num(batch_max_depth)});
  }
  if (reloads > 0) {
    t.AddRow({"reloads", TextTable::Num(reloads)});
    t.AddRow({"last reload (ms)", TextTable::Num(last_reload_ms)});
  }
  // Shard rows appear only on a sharded backend, so single-tree
  // reports keep their PR-1 shape.
  if (shards > 0) {
    t.AddRow({"shards", TextTable::Num(shards)});
    t.AddRow({"shard queries", TextTable::Num(shard_queries)});
    if (queries > 0) {
      t.AddRow({"shard fan-out (mean)",
                TextTable::Num(static_cast<double>(shard_queries) /
                               static_cast<double>(queries))});
    }
    t.AddRow({"shard reload (ms)", TextTable::Num(shard_reload_ms)});
  }
  // Update rows appear only once a streaming update has been accepted,
  // so static-index reports keep their shape.
  if (updates > 0) {
    t.AddRow({"updates", TextTable::Num(updates)});
    t.AddRow({"update txs", TextTable::Num(update_txs)});
    t.AddRow({"update edges", TextTable::Num(update_edges)});
    t.AddRow({"update dirty items", TextTable::Num(update_dirty_items)});
    t.AddRow(
        {"update shards swapped", TextTable::Num(update_shards_swapped)});
    t.AddRow({"last update (ms)", TextTable::Num(last_update_ms)});
  }
  // Overload-protection rows appear only once a deadline expired or the
  // transport refused work, so calm-weather reports keep their shape.
  if (deadline_exceeded > 0 || rate_limited > 0 || shed > 0) {
    t.AddRow({"deadline exceeded", TextTable::Num(deadline_exceeded)});
    t.AddRow({"rate limited", TextTable::Num(rate_limited)});
    t.AddRow({"shed", TextTable::Num(shed)});
    t.AddRow({"clients tracked", TextTable::Num(clients_tracked)});
  }
  return t;
}

std::string ServeReport::ToString() const {
  std::ostringstream os;
  ToTable().Print(os);
  return os.str();
}

ServeStats::ServeStats(MetricsRegistry& registry)
    : latency_us_(registry.GetHistogram(
          "tcf_query_total_us",
          "End-to-end Execute wall microseconds of every answered query")),
      trusses_(registry.GetCounter("tcf_query_trusses_total",
                                   "Trusses returned by answered queries")) {
  registry.RegisterCallback(
      "tcf_query_latency_p99_us",
      "p99 end-to-end query latency, interpolated from the "
      "tcf_query_total_us buckets (0 until a query is answered)",
      MetricsRegistry::CallbackKind::kGauge,
      [this] { return HistogramQuantile(latency_us_.Fold(), 0.99); });
}

void ServeStats::RecordQuery(double latency_us, uint64_t num_trusses) {
  latency_us_.Record(latency_us);
  trusses_.Increment(num_trusses);
}

void ServeStats::RecordConnectionOpened() {
  const uint64_t opened =
      connections_opened_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t closed = connections_closed_.load(std::memory_order_relaxed);
  // `active` can momentarily undercount under concurrent closes; that
  // only ever makes the recorded peak conservative, never inflated.
  const uint64_t active = opened - std::min(opened, closed);
  uint64_t peak = connections_peak_.load(std::memory_order_relaxed);
  while (active > peak &&
         !connections_peak_.compare_exchange_weak(
             peak, active, std::memory_order_relaxed)) {
  }
}

void ServeStats::RecordConnectionClosed() {
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordNetworkBytes(uint64_t in, uint64_t out) {
  bytes_in_.fetch_add(in, std::memory_order_relaxed);
  bytes_out_.fetch_add(out, std::memory_order_relaxed);
}

void ServeStats::RecordBatch(uint64_t depth) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_queries_.fetch_add(depth, std::memory_order_relaxed);
  uint64_t max = batch_max_depth_.load(std::memory_order_relaxed);
  while (depth > max &&
         !batch_max_depth_.compare_exchange_weak(
             max, depth, std::memory_order_relaxed)) {
  }
}

void ServeStats::RecordReload(double wall_ms) {
  reloads_.fetch_add(1, std::memory_order_relaxed);
  last_reload_ms_.store(wall_ms, std::memory_order_relaxed);
}

void ServeStats::RecordUpdate(uint64_t txs, uint64_t edges,
                              uint64_t dirty_items, uint64_t shards_swapped,
                              double wall_ms) {
  updates_.fetch_add(1, std::memory_order_relaxed);
  update_txs_.fetch_add(txs, std::memory_order_relaxed);
  update_edges_.fetch_add(edges, std::memory_order_relaxed);
  update_dirty_items_.fetch_add(dirty_items, std::memory_order_relaxed);
  update_shards_swapped_.fetch_add(shards_swapped,
                                   std::memory_order_relaxed);
  last_update_ms_.store(wall_ms, std::memory_order_relaxed);
}

void ServeStats::RecordDeadlineExceeded() {
  deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordRateLimited() {
  rate_limited_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::RecordShed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
}

void ServeStats::SetClientsTracked(uint64_t n) {
  clients_tracked_.store(n, std::memory_order_relaxed);
}

void ServeStats::RegisterMetrics(MetricsRegistry* registry) {
  const auto counter = [](const std::atomic<uint64_t>* v) {
    return [v] {
      return static_cast<double>(v->load(std::memory_order_relaxed));
    };
  };
  registry->RegisterCallback(
      "tcf_connections_accepted_total", "Network connections accepted.",
      MetricsRegistry::CallbackKind::kCounter, counter(&connections_opened_));
  registry->RegisterCallback(
      "tcf_connections_active", "Currently open network connections.",
      MetricsRegistry::CallbackKind::kGauge, [this] {
        const uint64_t opened =
            connections_opened_.load(std::memory_order_relaxed);
        const uint64_t closed =
            connections_closed_.load(std::memory_order_relaxed);
        return static_cast<double>(opened - std::min(opened, closed));
      });
  registry->RegisterCallback(
      "tcf_connections_peak", "High-water mark of active connections.",
      MetricsRegistry::CallbackKind::kGauge, counter(&connections_peak_));
  registry->RegisterCallback(
      "tcf_bytes_in_total", "Request bytes read off sockets.",
      MetricsRegistry::CallbackKind::kCounter, counter(&bytes_in_));
  registry->RegisterCallback(
      "tcf_bytes_out_total", "Response bytes written to sockets.",
      MetricsRegistry::CallbackKind::kCounter, counter(&bytes_out_));
  registry->RegisterCallback(
      "tcf_batches_total", "BATCH requests executed.",
      MetricsRegistry::CallbackKind::kCounter, counter(&batches_));
  registry->RegisterCallback(
      "tcf_batch_queries_total", "Query lines carried inside batches.",
      MetricsRegistry::CallbackKind::kCounter, counter(&batch_queries_));
  registry->RegisterCallback(
      "tcf_reloads_total", "Snapshot reloads completed.",
      MetricsRegistry::CallbackKind::kCounter, counter(&reloads_));
  registry->RegisterCallback(
      "tcf_last_reload_ms", "Wall time of the most recent reload, ms.",
      MetricsRegistry::CallbackKind::kGauge, [this] {
        return last_reload_ms_.load(std::memory_order_relaxed);
      });
  registry->RegisterCallback(
      "tcf_updates_total", "Streaming-update flushes accepted.",
      MetricsRegistry::CallbackKind::kCounter, counter(&updates_));
  registry->RegisterCallback(
      "tcf_update_txs_total", "Transactions applied by streaming updates.",
      MetricsRegistry::CallbackKind::kCounter, counter(&update_txs_));
  registry->RegisterCallback(
      "tcf_update_edges_total", "Edges applied by streaming updates.",
      MetricsRegistry::CallbackKind::kCounter, counter(&update_edges_));
  registry->RegisterCallback(
      "tcf_update_dirty_items_total",
      "Items dirtied by streaming updates (cache-invalidation scope).",
      MetricsRegistry::CallbackKind::kCounter,
      counter(&update_dirty_items_));
  registry->RegisterCallback(
      "tcf_update_shards_swapped_total",
      "Shard snapshots rolled by streaming updates.",
      MetricsRegistry::CallbackKind::kCounter,
      counter(&update_shards_swapped_));
  registry->RegisterCallback(
      "tcf_last_update_ms",
      "Enqueue-to-swap wall time of the most recent update, ms.",
      MetricsRegistry::CallbackKind::kGauge, [this] {
        return last_update_ms_.load(std::memory_order_relaxed);
      });
  registry->RegisterCallback(
      "tcf_deadline_exceeded_total",
      "Queries that expired mid-execution (ERR DeadlineExceeded).",
      MetricsRegistry::CallbackKind::kCounter,
      counter(&deadline_exceeded_));
  registry->RegisterCallback(
      "tcf_rate_limited_total",
      "Requests refused by the per-client token bucket.",
      MetricsRegistry::CallbackKind::kCounter, counter(&rate_limited_));
  registry->RegisterCallback(
      "tcf_shed_total", "Requests dropped by queue-depth load shedding.",
      MetricsRegistry::CallbackKind::kCounter, counter(&shed_));
  registry->RegisterCallback(
      "tcf_clients_tracked",
      "Per-client accounting records currently held in the LRU.",
      MetricsRegistry::CallbackKind::kGauge, counter(&clients_tracked_));
}

ServeReport ServeStats::Report(const ResultCacheStats& cache) const {
  ServeReport report;
  report.cache = cache;
  report.wall_seconds = wall_.Seconds();
  const uint64_t opened = connections_opened_.load(std::memory_order_relaxed);
  const uint64_t closed = connections_closed_.load(std::memory_order_relaxed);
  report.connections_accepted = opened;
  report.connections_active = opened - std::min(opened, closed);
  report.connections_peak =
      connections_peak_.load(std::memory_order_relaxed);
  report.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  report.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  report.batches = batches_.load(std::memory_order_relaxed);
  report.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  report.batch_max_depth =
      batch_max_depth_.load(std::memory_order_relaxed);
  report.reloads = reloads_.load(std::memory_order_relaxed);
  report.last_reload_ms = last_reload_ms_.load(std::memory_order_relaxed);
  report.updates = updates_.load(std::memory_order_relaxed);
  report.update_txs = update_txs_.load(std::memory_order_relaxed);
  report.update_edges = update_edges_.load(std::memory_order_relaxed);
  report.update_dirty_items =
      update_dirty_items_.load(std::memory_order_relaxed);
  report.update_shards_swapped =
      update_shards_swapped_.load(std::memory_order_relaxed);
  report.last_update_ms = last_update_ms_.load(std::memory_order_relaxed);
  report.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  report.rate_limited = rate_limited_.load(std::memory_order_relaxed);
  report.shed = shed_.load(std::memory_order_relaxed);
  report.clients_tracked = clients_tracked_.load(std::memory_order_relaxed);

  report.trusses_returned = trusses_.Value();
  report.latency = latency_us_.Fold();
  DeriveLatencyFields(&report);
  return report;
}

}  // namespace tcf
