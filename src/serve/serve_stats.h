#ifndef TCF_SERVE_SERVE_STATS_H_
#define TCF_SERVE_SERVE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics_registry.h"
#include "serve/result_cache.h"
#include "util/table.h"
#include "util/timer.h"

namespace tcf {

/// Point-in-time summary produced by ServeStats::Report().
struct ServeReport {
  uint64_t queries = 0;      // answered queries (latency.count)
  uint64_t trusses_returned = 0;
  double wall_seconds = 0;   // since the collector was constructed
  double qps = 0;            // queries / wall_seconds
  double mean_us = 0;        // per-query latency, microseconds
  // Percentiles interpolate inside the log2 buckets of `latency`
  // (HistogramQuantile): at most 2x off, clamped at 2^20 us. max_us is
  // the upper bound of the highest non-empty bucket.
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double max_us = 0;
  ResultCacheStats cache;    // zero-initialized if no cache attached
  /// The fold of tcf_query_total_us the latency fields above derive
  /// from; Since() subtracts it bucket by bucket.
  Histogram::Snapshot latency;

  // Network-transport counters (zero when serving in-process).
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;  // accepted minus closed
  uint64_t connections_peak = 0;    // high-water mark of active
  uint64_t bytes_in = 0;            // request bytes read off sockets
  uint64_t bytes_out = 0;           // response bytes written

  // Pipelining counters (BATCH verb; lifetime-of-server like the
  // connection counters). batch_queries / batches is the mean depth.
  uint64_t batches = 0;
  uint64_t batch_queries = 0;   // query lines carried inside batches
  uint64_t batch_max_depth = 0;

  // Snapshot-roll counters (RELOAD verb / SwapSnapshot; lifetime-of-
  // server). `last_reload_ms` is the wall time of the most recent
  // load-and-swap — the number an operator watches shrink when the index
  // is rebuilt with more `--build-threads`.
  uint64_t reloads = 0;
  double last_reload_ms = 0;

  // Sharding counters (serve/shard_router.h; all zero on an unsharded
  // backend). `shard_queries` counts per-shard sub-queries — divided by
  // `queries` it is the mean scatter fan-out. `shard_reload_ms` is the
  // wall time of the most recent *single-shard* snapshot swap: the
  // longest pause any one shard's cache sees during a rolling reload,
  // as opposed to `last_reload_ms`, which times the whole roll.
  uint64_t shards = 0;
  uint64_t shard_queries = 0;
  double shard_reload_ms = 0;

  // Streaming-update counters (UPDATE verb / IndexUpdater; lifetime-of-
  // server). `updates` counts accepted flushes; txs/edges/dirty items
  // sum over them; `update_shards_swapped` sums the snapshots each
  // apply actually rolled (1 per flush unsharded; only the shards
  // owning a changed root on a sharded backend). `last_update_ms` is
  // the wall time of the most recent enqueue-to-swap apply — the
  // freshness latency an operator watches under churn.
  uint64_t updates = 0;
  uint64_t update_txs = 0;
  uint64_t update_edges = 0;
  uint64_t update_dirty_items = 0;
  uint64_t update_shards_swapped = 0;
  double last_update_ms = 0;

  // Overload-protection counters (deadlines / rate limiting / load
  // shedding; lifetime-of-server like the other transport counters).
  // `deadline_exceeded` counts queries that expired mid-execution and
  // returned ERR DeadlineExceeded; `rate_limited` counts requests
  // refused by the per-client token bucket; `shed` counts requests
  // dropped by queue-depth load shedding; `clients_tracked` is the
  // point-in-time size of the per-client accounting LRU.
  uint64_t deadline_exceeded = 0;
  uint64_t rate_limited = 0;
  uint64_t shed = 0;
  uint64_t clients_tracked = 0;

  /// What was recorded between `before` (an earlier report of the same
  /// collector) and this report: counters, latency buckets and wall
  /// time are differences, gauges (active connections, peaks, last-ms
  /// values, cache residency) keep this report's value. Per-pass tables
  /// (`tcf serve --repeat`, bench_serve) are built from it.
  ServeReport Since(const ServeReport& before) const;

  /// Renders the report as a two-column (metric, value) table.
  TextTable ToTable() const;
  std::string ToString() const;
};

/// \brief Thread-safe latency/throughput collector for the serving layer.
///
/// Every answered query lands in the `tcf_query_total_us` log2
/// histogram and the `tcf_query_trusses_total` counter of the registry
/// handed to the constructor — the same instruments METRICS renders —
/// so recording is a few relaxed atomic adds (no mutex, no allocation)
/// and memory and Report() cost are independent of uptime. Report() is
/// cumulative over the collector's lifetime; wall time for QPS comes
/// from util/timer.h's WallTimer, started at construction.
class ServeStats {
 public:
  /// `registry` owns the latency histogram and truss counter and must
  /// outlive this collector; this collector must outlive the
  /// registry's last Render() (it backs the p99 callback gauge).
  explicit ServeStats(MetricsRegistry& registry);

  ServeStats(const ServeStats&) = delete;
  ServeStats& operator=(const ServeStats&) = delete;

  /// Records one answered query.
  void RecordQuery(double latency_us, uint64_t num_trusses);

  /// Records one accepted network connection (TcpServer's accept path)
  /// and advances the active-connection high-water mark.
  void RecordConnectionOpened();

  /// Records one closed network connection.
  void RecordConnectionClosed();

  /// Folds one request/response exchange's socket traffic in.
  void RecordNetworkBytes(uint64_t in, uint64_t out);

  /// Records one executed BATCH of `depth` query lines.
  void RecordBatch(uint64_t depth);

  /// Records one completed snapshot reload that took `wall_ms`.
  void RecordReload(double wall_ms);

  /// Records one accepted streaming-update flush: `txs` transactions
  /// and `edges` edges applied, `dirty_items` items dirtied,
  /// `shards_swapped` snapshots rolled, `wall_ms` enqueue-to-swap time.
  void RecordUpdate(uint64_t txs, uint64_t edges, uint64_t dirty_items,
                    uint64_t shards_swapped, double wall_ms);

  /// Records one query that expired mid-execution (ERR DeadlineExceeded).
  void RecordDeadlineExceeded();

  /// Records one request refused by the per-client token bucket.
  void RecordRateLimited();

  /// Records one request dropped by queue-depth load shedding.
  void RecordShed();

  /// Publishes the point-in-time size of the per-client accounting LRU
  /// (set by the transport whenever the table changes).
  void SetClientsTracked(uint64_t n);

  /// Summarizes everything recorded so far. Pass the cache's counters
  /// to fold the hit rate into the report.
  ServeReport Report(const ResultCacheStats& cache = {}) const;

  /// Exports the transport counters into `registry` as callback
  /// instruments (tcf_connections_*, tcf_bytes_*, tcf_batch*,
  /// tcf_reloads_total, tcf_last_reload_ms): the registry reads the
  /// atomics at scrape time, so the record paths stay untouched. This
  /// collector must outlive the registry's last Render().
  void RegisterMetrics(MetricsRegistry* registry);

 private:
  Histogram& latency_us_;
  Counter& trusses_;
  WallTimer wall_;

  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> connections_peak_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batch_queries_{0};
  std::atomic<uint64_t> batch_max_depth_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<double> last_reload_ms_{0};
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> update_txs_{0};
  std::atomic<uint64_t> update_edges_{0};
  std::atomic<uint64_t> update_dirty_items_{0};
  std::atomic<uint64_t> update_shards_swapped_{0};
  std::atomic<double> last_update_ms_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> rate_limited_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> clients_tracked_{0};
};

}  // namespace tcf

#endif  // TCF_SERVE_SERVE_STATS_H_
