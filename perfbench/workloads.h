// The benchmark workloads. Each runs one index lifecycle over its
// own dataset and traffic: set-up, the timed loop that carries the
// workload's focus and repeats every lifecycle step, and the independent
// checks.
#ifndef TCF_PERFBENCH_WORKLOADS_H_
#define TCF_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench.h"

namespace tcf::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for index files and the span dump (inside the checkout).
  std::string work_dir;
};

/// A workload's options plus where it puts its results and spans.
struct RunContext {
  const RunOptions& options;
  Report& report;
  SpanLog& spans;
  /// A file path under the work directory.
  std::string Path(const std::string& name) const {
    return options.work_dir + "/" + name;
  }
};

void RunIndexSyn(RunContext& ctx);
void RunChurnSynShard4(RunContext& ctx);

}  // namespace tcf::perfbench

#endif  // TCF_PERFBENCH_WORKLOADS_H_
