#include "workloads.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/tc_tree_query.h"
#include "core/tcfi_format.h"
#include "serve/client.h"
#include "serve/query_service.h"
#include "serve/shard_router.h"
#include "serve/tcp_server.h"
#include "util/string_util.h"

namespace tcf::perfbench {
namespace {

// Explicit thread counts: index builds and update replays use two
// workers; the server runs one event loop and one execution worker; the
// closed-loop client is the main thread. Busy threads stay at three.
constexpr size_t kBuildThreads = 2;
constexpr size_t kServerWorkers = 1;
// STATS round trips per measurement (the median is reported).
constexpr size_t kStatsProbes = 15;

[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  throw std::runtime_error(what + ": " + status.ToString());
}

double Mib(double bytes) { return bytes / (1024.0 * 1024.0); }

// ------------------------------------------------------------ build/load

struct BuildSamples {
  Samples total_s;  // Build + SaveTcTreeBinary
  Samples layer1_ms;
  Samples deep_ms;
  bool have_first = false;
  TcTreeBuildStats first;
  size_t nodes = 0;
  uint64_t indexed_edges = 0;
  size_t heap_bytes = 0;
};

/// Builds the index over `net`, persists it as TCFI at `path`.
TcTree BuildOnce(RunContext& ctx, const DatabaseNetwork& net,
                 const TcTreeOptions& options, const std::string& path,
                 BuildSamples* out) {
  const double t0 = Now();
  TcTree tree = TcTree::Build(net, options);
  const double t1 = Now();
  const Status saved = SaveTcTreeBinary(tree, path);
  const double t2 = Now();
  ctx.report.Attempt(saved, "SaveTcTreeBinary");
  const int64_t span = ctx.spans.Add("bench.build", t0, t2);
  ctx.spans.Add("core.build", t0, t1, span);
  ctx.spans.Add("core.tcfi.save", t1, t2, span);
  out->total_s.Add(t2 - t0);

  const TcTreeBuildStats& stats = tree.build_stats();
  double layer1 = 0, deep = 0;
  for (const TcTreeWaveStats& wave : stats.waves) {
    (wave.depth <= 1 ? layer1 : deep) += wave.wall_ms;
  }
  out->layer1_ms.Add(layer1);
  out->deep_ms.Add(deep);
  if (!out->have_first) {
    out->have_first = true;
    out->first = stats;
    out->nodes = tree.num_nodes();
    out->indexed_edges = tree.TotalIndexedEdges();
    out->heap_bytes = tree.MemoryBytes();
  } else if (tree.num_nodes() != out->nodes ||
             stats.mptd_calls != out->first.mptd_calls ||
             stats.candidates_considered != out->first.candidates_considered) {
    ctx.report.Mismatch(StrFormat(
        "two builds of one network differ: %zu vs %zu nodes, %llu vs %llu "
        "MPTD calls",
        out->nodes, tree.num_nodes(),
        static_cast<unsigned long long>(out->first.mptd_calls),
        static_cast<unsigned long long>(stats.mptd_calls)));
  }
  return tree;
}

/// Maps the TCFI file with full validation (checksums and structure) and
/// answers `first` from it: the time until an index can answer.
void LoadOnce(RunContext& ctx, const std::string& path,
              const StreamQuery& first, Samples* load_ms, double* file_mib) {
  const double t0 = Now();
  StatusOr<MappedTcTree> mapped = MapTcTree(path);
  const double t1 = Now();
  ctx.report.Attempt(mapped.status(), "MapTcTree");
  if (!mapped.ok()) return;
  const TcTreeQueryResult answer =
      QueryTcTree(*mapped, first.query.items, first.query.alpha);
  const double t2 = Now();
  const int64_t span = ctx.spans.Add("bench.load", t0, t2);
  ctx.spans.Add("core.tcfi.map", t0, t1, span);
  ctx.spans.Add("core.query.first_answer", t1, t2, span);
  load_ms->Add((t2 - t0) * 1e3);
  *file_mib = Mib(static_cast<double>(mapped->FileBytes()));
  (void)answer;
}

void ReportBuilds(RunContext& ctx, const BuildSamples& b) {
  ctx.report.Set("build_s", b.total_s.Median(), "s");
  const TcTreeBuildStats& s = b.first;
  ctx.report.Set("core.build.layer1_ms", b.layer1_ms.Median(), "ms");
  ctx.report.Set("core.build.deep_ms", b.deep_ms.Median(), "ms");
  ctx.report.Set("core.build.mptd_calls", static_cast<double>(s.mptd_calls),
                 "count");
  ctx.report.Set("core.build.prune_ratio",
                 s.candidates_considered == 0
                     ? 0.0
                     : static_cast<double>(s.pruned_by_intersection) /
                           static_cast<double>(s.candidates_considered),
                 "ratio");
  ctx.report.Set("core.build.nodes", static_cast<double>(b.nodes), "count");
  ctx.report.Set("core.build.indexed_edges",
                 static_cast<double>(b.indexed_edges), "count");
  ctx.report.Set("core.build.heap_mb", Mib(static_cast<double>(b.heap_bytes)),
                 "MiB");
  ctx.report.Set("core.tcfi.save_ms",
                 ctx.spans.DurationsUs("core.tcfi.save").Median() / 1e3, "ms");
  ctx.report.Set("core.tcfi.map_ms",
                 ctx.spans.DurationsUs("core.tcfi.map").Median() / 1e3, "ms");
  ctx.report.Counter("build.nodes", static_cast<double>(b.nodes));
  ctx.report.Counter("build.mptd_calls", static_cast<double>(s.mptd_calls));
  ctx.report.Counter("build.candidates",
                     static_cast<double>(s.candidates_considered));
  ctx.report.Counter("build.pruned",
                     static_cast<double>(s.pruned_by_intersection));
}

// ------------------------------------------------------------ serving

/// A TCF1 server over `backend` on loopback, an IndexUpdater behind its
/// UPDATE verb, and one connected client. Members are destroyed client
/// first, backend last.
struct Serving {
  std::unique_ptr<QueryBackend> backend;
  std::unique_ptr<IndexUpdater> updater;
  std::unique_ptr<TcpServer> server;
  std::unique_ptr<Client> client;

  Serving(std::unique_ptr<QueryBackend> served, DatabaseNetwork net,
          TcTree tree, const TcTreeOptions& build_options)
      : backend(std::move(served)) {
    QueryBackend* sink = backend.get();
    updater = std::make_unique<IndexUpdater>(
        std::move(net), std::move(tree),
        [sink](TcTree t, const std::vector<ItemId>& changed_roots,
               const std::vector<ItemId>& dirty_items) {
          return sink->ApplyUpdatedSnapshot(std::move(t), changed_roots,
                                            dirty_items);
        },
        build_options);
    TcpServerOptions options;
    options.num_threads = kServerWorkers;
    options.updater = updater.get();
    server = std::make_unique<TcpServer>(*backend, options);
    const Status started = server->Start();
    if (!started.ok()) Fatal("TcpServer::Start", started);
    auto connected = Client::Connect("127.0.0.1", server->port());
    if (!connected.ok()) Fatal("Client::Connect", connected.status());
    client = std::move(*connected);
  }
  ~Serving() {
    client.reset();
    server->Shutdown();
  }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
};

QueryServiceOptions ServiceOptions() {
  QueryServiceOptions options;
  options.num_threads = 1;  // ExecuteBatch pool; the server never batches
  return options;
}

struct ReadSamples {
  Samples rtt_us;
  uint64_t trusses = 0;
  uint64_t edges = 0;
};

/// One closed-loop read over the wire, timed around Client::Query. The
/// nesting check runs after the clock stops.
std::vector<WireTruss> TimedRead(RunContext& ctx, Client& client,
                                 const StreamQuery& q, int64_t request,
                                 ReadSamples* out) {
  const double t0 = Now();
  StatusOr<std::vector<WireTruss>> answer = client.Query(q.line);
  const double t1 = Now();
  ctx.report.Attempt(answer.status(), "query");
  if (!answer.ok()) return {};
  ctx.spans.Add("client.query", t0, t1, -1, request);
  out->rtt_us.Add((t1 - t0) * 1e6);
  out->trusses += answer->size();
  for (const WireTruss& t : *answer) out->edges += t.edges.size();
  const std::string nesting = CheckNesting(*answer);
  if (!nesting.empty()) ctx.report.Mismatch(q.line + ": " + nesting);
  return std::move(*answer);
}

void MeasureStats(RunContext& ctx, Client& client, Samples* stats_ms) {
  for (size_t i = 0; i < kStatsProbes; ++i) {
    const double t0 = Now();
    auto stats = client.Stats();
    const double t1 = Now();
    ctx.report.Attempt(stats.status(), "STATS");
    ctx.spans.Add("client.stats", t0, t1);
    stats_ms->Add((t1 - t0) * 1e3);
  }
}

struct UpdateSamples {
  Samples rtt_ms;
  Samples apply_ms;  // the server-side IndexUpdater time it reports
  double dirty_items = 0;
  double changed_roots = 0;
  double copied = 0;
  double recomputed = 0;
  double shards_swapped = 0;
};

/// One UPDATE round trip: acknowledged after apply and snapshot swap.
void TimedUpdate(RunContext& ctx, Client& client,
                 const ItemDictionary& dictionary, const NetworkUpdate& batch,
                 UpdateSamples* out) {
  const std::vector<std::string> lines = EncodeUpdate(dictionary, batch);
  const double t0 = Now();
  auto outcome = client.Update(lines);
  const double t1 = Now();
  ctx.report.Attempt(outcome.status(), "UPDATE");
  if (!outcome.ok()) return;
  ctx.spans.Add("client.update", t0, t1);
  out->rtt_ms.Add((t1 - t0) * 1e3);
  for (const auto& [key, value] : *outcome) {
    const double v = std::strtod(value.c_str(), nullptr);
    if (key == "dirty_items") out->dirty_items += v;
    if (key == "changed_roots") out->changed_roots += v;
    if (key == "copied") out->copied += v;
    if (key == "recomputed") out->recomputed += v;
    if (key == "shards_swapped") out->shards_swapped += v;
    if (key == "update_ms") out->apply_ms.Add(v);
  }
}

void ReportUpdates(RunContext& ctx, const UpdateSamples& u) {
  const double n = static_cast<double>(std::max<size_t>(1, u.rtt_ms.size()));
  ctx.report.Set("update_p50_ms", u.rtt_ms.Median(), "ms");
  ctx.report.Set("core.update.apply_ms", u.apply_ms.Median(), "ms");
  ctx.report.Set("core.update.dirty_items", u.dirty_items / n, "count");
  ctx.report.Set("core.update.changed_roots", u.changed_roots / n, "count");
  ctx.report.Set("core.update.copy_ratio",
                 u.copied + u.recomputed == 0
                     ? 0.0
                     : u.copied / (u.copied + u.recomputed),
                 "ratio");
  ctx.report.Set("serve.router.shards_swapped", u.shards_swapped / n, "count");
}

/// Work counters of the UPDATEs in the counted prefix.
void CountUpdates(RunContext& ctx, const UpdateSamples& u) {
  ctx.report.Counter("update.batches", static_cast<double>(u.rtt_ms.size()));
  ctx.report.Counter("update.dirty_items", u.dirty_items);
  ctx.report.Counter("update.changed_roots", u.changed_roots);
  ctx.report.Counter("update.copied", u.copied);
  ctx.report.Counter("update.recomputed", u.recomputed);
  ctx.report.Counter("update.shards_swapped", u.shards_swapped);
}

/// Reads per second spent in reads, over the samples from `first` on.
double RoundQps(const ReadSamples& reads, size_t first) {
  const std::vector<double>& rtt = reads.rtt_us.values;
  double us = 0;
  for (size_t i = first; i < rtt.size(); ++i) us += rtt[i];
  return static_cast<double>(rtt.size() - first) / (us / 1e6);
}

/// `round_qps` holds one RoundQps per round: a host stall that hits a
/// few rounds moves their figures, not the median.
void ReportReads(RunContext& ctx, const ReadSamples& all,
                 const Samples& round_qps, const Samples& stats_ms) {
  ctx.report.Set("query_qps", round_qps.Median(), "1/s");
  ctx.report.Set("query_p50_us", all.rtt_us.Median(), "us");
  ctx.report.Set("query_p99_us", all.rtt_us.Quantile(0.99), "us");
  ctx.report.Set("obs.stats_ms", stats_ms.Median(), "ms");
}

/// Cache counters of the served backend over the counted prefix.
void ReportCache(RunContext& ctx, const ResultCacheStats& before,
                 const ResultCacheStats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  const double composed =
      static_cast<double>(after.composed_queries - before.composed_queries);
  const double partial =
      static_cast<double>(after.partial_hits - before.partial_hits);
  const double rejects =
      static_cast<double>(after.admission_rejects - before.admission_rejects);
  const double evictions =
      static_cast<double>(after.evictions - before.evictions);
  ctx.report.Set("serve.cache.hit_ratio",
                 hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
  ctx.report.Set("serve.cache.partial_hit_ratio",
                 misses == 0 ? 0.0 : composed / misses, "ratio");
  ctx.report.Set("serve.cache.composed", composed, "count");
  ctx.report.Set("serve.cache.admission_rejects", rejects, "count");
  ctx.report.Set("serve.cache.evictions", evictions, "count");
  ctx.report.Counter("cache.hits", hits);
  ctx.report.Counter("cache.misses", misses);
  ctx.report.Counter("cache.partial_hits", partial);
  ctx.report.Counter("cache.composed", composed);
  ctx.report.Counter("cache.inserts",
                     static_cast<double>(after.inserts - before.inserts));
  ctx.report.Counter("cache.evictions", evictions);
  ctx.report.Counter("cache.admission_rejects", rejects);
}

// ------------------------------------------------------------ replay

/// In-process counterparts of the served path, for the traced run.
struct ReplayTargets {
  QueryBackend* primary = nullptr;  // same kind and state as the server's
  const char* primary_span = "serve.service.execute";
  QueryBackend* unsharded = nullptr;  // the single-tree service, if primary
                                      // is the router
  std::function<TcTreeQueryResult(const ServeQuery&)> walk;
};

/// Replays the first `reads` reads of `stream` through each layer in
/// turn, spanning each: backend Execute, TCF1 encode (as the server
/// writes the response), TCF1 decode (as the client reads it) and a
/// direct tree walk. Request ids match the wire reads of the same
/// queries, so the transport's own time is the round trip minus these.
void ReplayLayers(RunContext& ctx, const ReplayTargets& targets,
                  const std::vector<StreamQuery>& stream, size_t reads) {
  const ItemDictionary& dictionary = targets.primary->dictionary();
  Samples bytes;
  double visited = 0, retrieved = 0, edges = 0;
  for (size_t i = 0; i < reads; ++i) {
    const auto request = static_cast<int64_t>(i);
    const ServeQuery& q = stream[i].query;
    double t0 = Now();
    const QueryBackend::Result result = targets.primary->Execute(q);
    double t1 = Now();
    ctx.spans.Add(targets.primary_span, t0, t1, -1, request);
    if (targets.unsharded != nullptr) {
      t0 = Now();
      (void)targets.unsharded->Execute(q);
      t1 = Now();
      ctx.spans.Add("serve.service.execute", t0, t1, -1, request);
    }

    t0 = Now();
    std::string response = EncodeOkHeader("TRUSSES", result->trusses.size());
    response += '\n';
    for (const PatternTruss& truss : result->trusses) {
      response += EncodeTruss(dictionary, truss);
      response += '\n';
    }
    t1 = Now();
    ctx.spans.Add("serve.protocol.encode", t0, t1, -1, request);
    bytes.Add(static_cast<double>(response.size()));

    t0 = Now();
    size_t begin = response.find('\n') + 1;
    StatusOr<ResponseHeader> header =
        ParseResponseHeader(std::string_view(response).substr(0, begin - 1));
    size_t decoded = 0;
    while (begin < response.size()) {
      const size_t end = response.find('\n', begin);
      if (DecodeTruss(std::string_view(response).substr(begin, end - begin))
              .ok()) {
        ++decoded;
      }
      begin = end + 1;
    }
    t1 = Now();
    ctx.spans.Add("serve.protocol.decode", t0, t1, -1, request);
    if (!header.ok() || decoded != result->trusses.size()) {
      ctx.report.Mismatch("TCF1 encode/decode lost trusses for " +
                          stream[i].line);
    }

    t0 = Now();
    const TcTreeQueryResult walk = targets.walk(q);
    t1 = Now();
    ctx.spans.Add("core.query.walk", t0, t1, -1, request);
    visited += static_cast<double>(walk.visited_nodes);
    retrieved += static_cast<double>(walk.retrieved_nodes);
    for (const PatternTruss& t : walk.trusses) {
      edges += static_cast<double>(t.num_edges());
    }
    if (walk.trusses.size() != result->trusses.size()) {
      ctx.report.Mismatch("served and walked answers differ for " +
                          stream[i].line);
    }
  }

  const double n = static_cast<double>(std::max<size_t>(1, reads));
  ctx.report.Set("core.query.walk_us",
                 ctx.spans.DurationsUs("core.query.walk").Median(), "us");
  ctx.report.Set("core.query.visited_per_query", visited / n, "count");
  ctx.report.Set("core.query.edges_per_answer", edges / n, "count");
  ctx.report.Set("serve.service.execute_us",
                 ctx.spans.DurationsUs("serve.service.execute").Median(),
                 "us");
  ctx.report.Set("serve.router.execute_us",
                 ctx.spans.DurationsUs("serve.router.execute").Median(), "us");
  ctx.report.Set("serve.protocol.encode_us",
                 ctx.spans.DurationsUs("serve.protocol.encode").Median(),
                 "us");
  ctx.report.Set("serve.protocol.decode_us",
                 ctx.spans.DurationsUs("serve.protocol.decode").Median(),
                 "us");
  ctx.report.Set("serve.protocol.bytes_per_answer", bytes.Mean(), "bytes");
  ctx.report.Counter("walk.visited", visited);
  ctx.report.Counter("walk.retrieved", retrieved);

  // Transport self time: each wire round trip minus the execute, encode
  // and decode spans of the same request.
  const auto rtt = ctx.spans.ByRequestUs("client.query");
  const auto exec = ctx.spans.ByRequestUs(targets.primary_span);
  const auto enc = ctx.spans.ByRequestUs("serve.protocol.encode");
  const auto dec = ctx.spans.ByRequestUs("serve.protocol.decode");
  Samples self;
  for (const auto& [request, execute_us] : exec) {
    auto r = rtt.find(request);
    if (r == rtt.end()) continue;
    self.Add(r->second - execute_us - enc.at(request) - dec.at(request));
  }
  ctx.report.Set("serve.transport.self_us", self.Median(), "us");
}

/// Counters of the wire reads over the counted prefix.
void CountReads(RunContext& ctx, const ReadSamples& prefix) {
  ctx.report.Counter("reads.counted",
                     static_cast<double>(prefix.rtt_us.size()));
  ctx.report.Counter("reads.trusses", static_cast<double>(prefix.trusses));
  ctx.report.Counter("reads.edges", static_cast<double>(prefix.edges));
}

/// Brute-force checks of a seeded sample of recorded answers.
void CheckSampledAnswers(
    RunContext& ctx, const DatabaseNetwork& net,
    const std::vector<std::pair<const StreamQuery*, std::vector<WireTruss>>>&
        sampled) {
  for (const auto& [q, answer] : sampled) {
    const std::string problem = CheckAgainstBruteForce(net, q->query, answer);
    if (!problem.empty()) ctx.report.Mismatch(q->line + ": " + problem);
  }
  ctx.report.Counter("oracle.brute_force_answers",
                     static_cast<double>(sampled.size()));
}

/// True for the `k` seeded positions among `n` whose answers get the
/// brute-force check.
std::vector<bool> SamplePositions(size_t n, size_t k, uint64_t seed) {
  std::vector<bool> chosen(n, false);
  Rng rng(seed ^ 0x5bd1e995ull);
  for (uint64_t i : rng.SampleDistinct(n, std::min(n, k))) chosen[i] = true;
  return chosen;
}

double ElapsedSince(double start) { return Now() - start; }

}  // namespace

// ================================================================ index_syn

void RunIndexSyn(RunContext& ctx) {
  const RunOptions& opt = ctx.options;
  constexpr size_t kReadsPerRound = 1000;
  constexpr size_t kCountedRounds = 4;  // the counted prefix
  constexpr size_t kMaxRounds = 64;
  constexpr size_t kLoadsPerBuild = 3;

  const double g0 = Now();
  const DatabaseNetwork net = bench::MakeSynLike(0.3);
  const double g1 = Now();
  ctx.spans.Add("gen.network", g0, g1);
  ctx.report.Set("gen.network_s", g1 - g0, "s");
  const TcTreeOptions build{.num_threads = kBuildThreads};
  const std::vector<StreamQuery> reads =
      UniformShortStream(net, kReadsPerRound * kMaxRounds, opt.seed);
  // The first, untimed build is served (mapped) for the run's reads; the
  // updater behind UPDATE owns it.
  const std::string served_path = ctx.Path("index_syn.served.tcfi");
  TcTree first = TcTree::Build(net, build);
  const Status saved = SaveTcTreeBinary(first, served_path);
  if (!saved.ok()) Fatal("SaveTcTreeBinary", saved);
  auto opened =
      QueryService::Open(served_path, net.dictionary(), ServiceOptions());
  if (!opened.ok()) Fatal("QueryService::Open", opened.status());
  Serving serving(std::move(*opened), bench::MakeSynLike(0.3), std::move(first),
                  build);
  ctx.report.Set("setup_s", SinceStart(), "s");

  // Focus: build + save, then validated map + first answer, for the run
  // time. Each round also sends 1,000 reads and then one UPDATE to the
  // server, so the read and UPDATE samples spread over the whole run; the
  // first rounds are the counted prefix.
  const std::string path = ctx.Path("index_syn.tcfi");
  BuildSamples builds;
  Samples load_ms;
  double index_mib = 0;
  std::optional<TcTree> last;
  const std::vector<bool> sampled_pos =
      SamplePositions(kReadsPerRound, 4, opt.seed);
  std::vector<std::pair<const StreamQuery*, std::vector<WireTruss>>> sampled;
  ReadSamples wire, prefix;
  Samples round_qps;
  BatchSource batches(net, opt.seed);
  UpdateSamples updates;
  Samples stats_ms;
  const ResultCacheStats cache_before = serving.backend->cache_stats();
  double rss_after_prefix = 0;
  uint64_t reads_after_prefix = 0;
  size_t next_read = 0;
  const double start = Now();
  for (size_t round = 0;
       round < kMaxRounds &&
       (round < kCountedRounds || ElapsedSince(start) < opt.seconds);
       ++round) {
    last.reset();
    last.emplace(BuildOnce(ctx, net, build, path, &builds));
    for (size_t i = 0; i < kLoadsPerBuild; ++i) {
      LoadOnce(ctx, path, reads[0], &load_ms, &index_mib);
    }
    const bool counted = round < kCountedRounds;
    ReadSamples& into = counted ? prefix : wire;
    const size_t first = into.rtt_us.size();
    for (size_t i = 0; i < kReadsPerRound; ++i, ++next_read) {
      auto answer = TimedRead(ctx, *serving.client, reads[next_read],
                              static_cast<int64_t>(next_read), &into);
      if (round == 0 && sampled_pos[i]) {
        sampled.emplace_back(&reads[next_read], std::move(answer));
      }
    }
    round_qps.Add(RoundQps(into, first));
    if (!counted) reads_after_prefix += kReadsPerRound;
    TimedUpdate(ctx, *serving.client, net.dictionary(), batches.Next(),
                &updates);
    if (round + 1 == kCountedRounds) {
      ReportCache(ctx, cache_before, serving.backend->cache_stats());
      CountReads(ctx, prefix);
      CountUpdates(ctx, updates);
      MeasureStats(ctx, *serving.client, &stats_ms);
      rss_after_prefix = CurrentRssKib();
    }
  }
  const double rss_end = CurrentRssKib();
  ReportBuilds(ctx, builds);
  ReportUpdates(ctx, updates);
  ctx.report.Set("load_ms", load_ms.Median(), "ms");
  ctx.report.Set("index_mb", index_mib, "MiB");
  for (double v : prefix.rtt_us.values) wire.rtt_us.Add(v);
  ReportReads(ctx, wire, round_qps, stats_ms);
  ctx.report.Set("obs.rss_growth_kb_per_kquery",
                 reads_after_prefix == 0
                     ? 0.0
                     : (rss_end - rss_after_prefix) /
                           (static_cast<double>(reads_after_prefix) / 1000.0),
                 "KiB/kquery");

  // Independent checks of the last build.
  const size_t violations = CountAntiMonotoneViolations(*last);
  if (violations != 0) {
    ctx.report.Mismatch(StrFormat("%zu nodes break graph anti-monotonicity",
                                  violations));
  }
  CheckTreeAgainstBruteForce(net, *last, 12, opt.seed, &ctx.report);
  {
    StatusOr<MappedTcTree> mapped = MapTcTree(path);
    ctx.report.Attempt(mapped.status(), "MapTcTree");
    if (mapped.ok()) {
      for (size_t i = 0; i < 200; ++i) {
        const ServeQuery& q = reads[i].query;
        const TcTreeQueryResult owned = QueryTcTree(*last, q.items, q.alpha);
        const TcTreeQueryResult from_map =
            QueryTcTree(*mapped, q.items, q.alpha);
        bool same = owned.trusses.size() == from_map.trusses.size();
        for (size_t t = 0; same && t < owned.trusses.size(); ++t) {
          same = owned.trusses[t].pattern == from_map.trusses[t].pattern &&
                 owned.trusses[t].edges == from_map.trusses[t].edges &&
                 owned.trusses[t].vertices == from_map.trusses[t].vertices;
        }
        if (!same) {
          ctx.report.Mismatch("owned and mapped answers differ for " +
                              reads[i].line);
        }
      }
    }
  }
  last.reset();

  if (ctx.spans.enabled()) {
    // Round 1 of a fresh service over the same file sees the same stream
    // and cache state as the server's round 1.
    auto fresh =
        QueryService::Open(served_path, net.dictionary(), ServiceOptions());
    if (!fresh.ok()) Fatal("QueryService::Open", fresh.status());
    const MappedTcTree* tree = (*fresh)->snapshot()->mapped_tree();
    ReplayTargets targets;
    targets.primary = fresh->get();
    targets.walk = [tree](const ServeQuery& q) {
      return QueryTcTree(*tree, q.items, q.alpha);
    };
    ReplayLayers(ctx, targets, reads, kReadsPerRound);
  }
  CheckSampledAnswers(ctx, net, sampled);
}

// ========================================================= churn_syn_shard4

void RunChurnSynShard4(RunContext& ctx) {
  const RunOptions& opt = ctx.options;
  constexpr size_t kShards = 4;
  constexpr size_t kReadsPerUpdate = 200;
  constexpr size_t kCountedRounds = 5;  // the counted prefix
  constexpr size_t kMaxRounds = 400;
  constexpr size_t kRoundsPerBuild = 4;
  constexpr size_t kOracleQueries = 48;

  const double g0 = Now();
  const DatabaseNetwork net = bench::MakeSynLike(1.0);
  const double g1 = Now();
  ctx.spans.Add("gen.network", g0, g1);
  ctx.report.Set("gen.network_s", g1 - g0, "s");
  // Depth-capped, so every UPDATE replays incrementally; the updater
  // replays with the same options.
  const TcTreeOptions build{.num_threads = kBuildThreads, .max_depth = 3};
  const std::vector<StreamQuery> stream =
      UniformShortStream(net, kReadsPerUpdate * kMaxRounds, opt.seed);
  const TcTree initial = TcTree::Build(net, build);
  auto router = std::make_unique<ShardedQueryService>(
      initial, net.dictionary(), kShards, ServiceOptions());
  const ShardedQueryService& shards = *router;
  Serving serving(std::move(router), bench::MakeSynLike(1.0), initial, build);
  BatchSource batches(net, opt.seed);
  ctx.report.Set("setup_s", SinceStart(), "s");

  // Focus: rounds of reads, each followed by one UPDATE, for the run time.
  // A load of the persisted index follows every round and a rebuild every
  // few rounds, so those samples spread over the whole run.
  const std::string build_path = ctx.Path("churn_syn_shard4.tcfi");
  BuildSamples builds;
  Samples load_ms;
  double index_mib = 0;
  const std::vector<bool> sampled_pos =
      SamplePositions(kReadsPerUpdate, 6, opt.seed);
  std::vector<std::pair<const StreamQuery*, std::vector<WireTruss>>> sampled;
  ReadSamples wire, prefix;
  Samples round_qps;
  UpdateSamples updates;
  Samples stats_ms;
  ResultCacheStats cache_before = serving.backend->cache_stats();
  double rss_after_prefix = 0;
  uint64_t reads_after_prefix = 0;
  size_t next_read = 0;
  const double start = Now();
  for (size_t round = 0;
       round < kMaxRounds &&
       (round < kCountedRounds || ElapsedSince(start) < opt.seconds);
       ++round) {
    const bool counted = round < kCountedRounds;
    ReadSamples& into = counted ? prefix : wire;
    const size_t first = into.rtt_us.size();
    for (size_t i = 0; i < kReadsPerUpdate; ++i, ++next_read) {
      auto answer = TimedRead(ctx, *serving.client, stream[next_read],
                              static_cast<int64_t>(next_read), &into);
      if (round == 0 && sampled_pos[i]) {
        sampled.emplace_back(&stream[next_read], std::move(answer));
      }
    }
    round_qps.Add(RoundQps(into, first));
    if (!counted) reads_after_prefix += kReadsPerUpdate;
    TimedUpdate(ctx, *serving.client, net.dictionary(), batches.Next(),
                &updates);
    if (round + 1 == kCountedRounds) {
      ReportCache(ctx, cache_before, serving.backend->cache_stats());
      CountReads(ctx, prefix);
      CountUpdates(ctx, updates);
      MeasureStats(ctx, *serving.client, &stats_ms);
      rss_after_prefix = CurrentRssKib();
    }
    if (round % kRoundsPerBuild == 0) {
      (void)BuildOnce(ctx, net, build, build_path, &builds);
    }
    LoadOnce(ctx, build_path, stream[0], &load_ms, &index_mib);
  }
  const double rss_end = CurrentRssKib();
  for (double v : prefix.rtt_us.values) wire.rtt_us.Add(v);
  ReportReads(ctx, wire, round_qps, stats_ms);
  ReportUpdates(ctx, updates);
  ReportBuilds(ctx, builds);
  ctx.report.Set("load_ms", load_ms.Median(), "ms");
  ctx.report.Set("index_mb", index_mib, "MiB");
  ctx.report.Set("obs.rss_growth_kb_per_kquery",
                 reads_after_prefix == 0
                     ? 0.0
                     : (rss_end - rss_after_prefix) /
                           (static_cast<double>(reads_after_prefix) / 1000.0),
                 "KiB/kquery");
  double fanout = 0;
  for (size_t i = 0; i < kReadsPerUpdate * kCountedRounds; ++i) {
    std::vector<size_t> owners;
    for (ItemId item : stream[i].query.items) {
      owners.push_back(shards.ShardOfItem(item));
    }
    std::sort(owners.begin(), owners.end());
    fanout += static_cast<double>(
        std::unique(owners.begin(), owners.end()) - owners.begin());
  }
  ctx.report.Set("serve.router.fanout",
                 fanout / static_cast<double>(kReadsPerUpdate * kCountedRounds),
                 "shards");

  if (ctx.spans.enabled()) {
    // Round 1 precedes the first UPDATE: fresh router and single-tree
    // service over the initial tree see the same stream and cache state.
    ShardedQueryService fresh_router(initial, net.dictionary(), kShards,
                                     ServiceOptions());
    QueryService fresh_service(initial, net.dictionary(), ServiceOptions());
    ReplayTargets targets;
    targets.primary = &fresh_router;
    targets.primary_span = "serve.router.execute";
    targets.unsharded = &fresh_service;
    targets.walk = [&initial](const ServeQuery& q) {
      return QueryTcTree(initial, q.items, q.alpha);
    };
    ReplayLayers(ctx, targets, stream, kReadsPerUpdate);
  }

  // Independent checks: round-1 answers against brute force on the
  // network as it was, then every answer of a query sample against a
  // from-scratch build over the benchmark's own copy of the network with
  // the same batches applied.
  DatabaseNetwork copy = bench::MakeSynLike(1.0);
  CheckSampledAnswers(ctx, copy, sampled);
  for (const NetworkUpdate& batch : batches.issued()) {
    for (const NetworkUpdate::TxInsert& tx : batch.transactions) {
      ctx.report.Attempt(copy.AddTransaction(tx.vertex, tx.items),
                         "AddTransaction");
    }
    for (const Edge& e : batch.edges) {
      ctx.report.Attempt(copy.AddEdge(e.u, e.v), "AddEdge");
    }
  }
  const TcTree rebuilt = TcTree::Build(copy, build);
  Rng rng(opt.seed ^ 0x2545f4914f6cdd1dull);
  for (size_t i = 0; i < kOracleQueries; ++i) {
    const StreamQuery& q = stream[rng.NextUint64(next_read)];
    auto answer = serving.client->Query(q.line);
    ctx.report.Attempt(answer.status(), "query");
    if (!answer.ok()) continue;
    const TcTreeQueryResult expected =
        QueryTcTree(rebuilt, q.query.items, q.query.alpha);
    const std::string problem =
        CompareAnswers(copy.dictionary(), expected.trusses, *answer);
    if (!problem.empty()) {
      ctx.report.Mismatch("after updates, " + q.line + ": " + problem);
    }
  }
  ctx.report.Counter("oracle.rebuild_answers", kOracleQueries);
}

}  // namespace tcf::perfbench
