// tcf_perfbench: runs one benchmark workload and prints its metrics.
//
//   tcf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it
// holds the run's work counters; a traced run also prints its own
// end-to-end figures, so the tracing overhead is visible, and writes its
// spans to <work-dir>/spans-<workload>-<seed>.tsv.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using tcf::perfbench::Report;
using tcf::perfbench::RunContext;
using tcf::perfbench::RunOptions;
using tcf::perfbench::SpanLog;

const std::vector<std::string> kEndToEnd = {
    "setup_s",   "peak_rss_mb",  "build_s",      "load_ms",
    "index_mb",  "query_qps",    "query_p50_us", "update_p50_ms"};

// Layers a workload does not exercise report 0. query_p99_us is an
// end-to-end figure kept here, without a bound: it spreads too widely
// between runs to bound (see README.md).
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"query_p99_us", "us"},
    {"gen.network_s", "s"},
    {"core.build.layer1_ms", "ms"},
    {"core.build.deep_ms", "ms"},
    {"core.build.mptd_calls", "count"},
    {"core.build.prune_ratio", "ratio"},
    {"core.build.nodes", "count"},
    {"core.build.indexed_edges", "count"},
    {"core.build.heap_mb", "MiB"},
    {"core.tcfi.save_ms", "ms"},
    {"core.tcfi.map_ms", "ms"},
    {"core.query.walk_us", "us"},
    {"core.query.visited_per_query", "count"},
    {"core.query.edges_per_answer", "count"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.partial_hit_ratio", "ratio"},
    {"serve.cache.composed", "count"},
    {"serve.cache.admission_rejects", "count"},
    {"serve.cache.evictions", "count"},
    {"serve.service.execute_us", "us"},
    {"serve.router.execute_us", "us"},
    {"serve.router.fanout", "shards"},
    {"serve.router.shards_swapped", "count"},
    {"serve.protocol.encode_us", "us"},
    {"serve.protocol.decode_us", "us"},
    {"serve.protocol.bytes_per_answer", "bytes"},
    {"serve.transport.self_us", "us"},
    {"core.update.apply_ms", "ms"},
    {"core.update.dirty_items", "count"},
    {"core.update.changed_roots", "count"},
    {"core.update.copy_ratio", "ratio"},
    {"obs.rss_growth_kb_per_kquery", "KiB/kquery"},
    {"obs.stats_ms", "ms"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "tcf_perfbench: %s\nusage: tcf_perfbench --workload "
               "<index_syn|churn_syn_shard4> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") options.trace = std::strcmp(value, "0") != 0;
    else if (flag == "--work-dir") options.work_dir = value;
    else return Usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  void (*run)(RunContext&) = nullptr;
  if (options.workload == "index_syn") run = tcf::perfbench::RunIndexSyn;
  if (options.workload == "churn_syn_shard4") {
    run = tcf::perfbench::RunChurnSynShard4;
  }
  if (run == nullptr) return Usage("unknown workload");
  mkdir(options.work_dir.c_str(), 0755);

  Report report;
  SpanLog spans(options.trace);
  for (const auto& [name, unit] : kPerLayer) report.Set(name, 0.0, unit);
  RunContext ctx{options, report, spans};
  try {
    run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcf_perfbench: %s\n", e.what());
    return 1;
  }
  report.Set("peak_rss_mb", tcf::perfbench::PeakRssMib(), "MiB");
  for (const std::string& name : kEndToEnd) {
    if (!report.Has(name)) {
      std::fprintf(stderr, "tcf_perfbench: %s was not measured\n",
                   name.c_str());
      return 1;
    }
  }
  if (options.trace) {
    const std::string path = options.work_dir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".tsv";
    if (!spans.Write(path)) {
      std::fprintf(stderr, "tcf_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  std::vector<std::string> layer_names;
  for (const auto& entry : kPerLayer) layer_names.push_back(entry.first);
  std::printf("counters %s\n", report.CountersJson().c_str());
  if (options.trace) {
    std::printf("traced_end_to_end %s\n",
                report.MetricsJson(kEndToEnd).c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted()),
      static_cast<unsigned long long>(report.failed()),
      report.MetricsJson(options.trace ? layer_names : kEndToEnd).c_str());
  return 0;
}
