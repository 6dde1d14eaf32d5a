// Shared pieces of the tcf benchmark: clocks, sample statistics, the
// in-memory span log, the run report, the seeded query streams and
// update batches, and the oracles that check answers independently of
// the code under test.
#ifndef TCF_PERFBENCH_BENCH_H_
#define TCF_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_update.h"
#include "net/database_network.h"
#include "serve/line_protocol.h"
#include "serve/query_backend.h"
#include "util/rng.h"

namespace tcf::perfbench {

// ------------------------------------------------------------ clocks

/// Seconds on the steady clock.
double Now();
/// Seconds since the process started (first static initializer).
double SinceStart();
/// Peak resident set of this process, MiB (getrusage).
double PeakRssMib();
/// Current resident set of this process, KiB (/proc/self/statm).
double CurrentRssKib();

// ------------------------------------------------------------ samples

struct Samples {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  size_t size() const { return values.size(); }
  double Sum() const;
  double Mean() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
};

// ------------------------------------------------------------ spans

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` is the index of the enclosing span or -1.
struct Span {
  const char* name = "";
  double start = 0;  // seconds, steady clock
  double end = 0;
  int64_t parent = -1;
  int64_t request = -1;
};

/// Spans kept in memory during a traced run and written out at exit.
/// Disabled (the end-to-end runs), Add records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records a span and returns its index (-1 when disabled).
  int64_t Add(const char* name, double start, double end, int64_t parent = -1,
              int64_t request = -1);
  /// Durations in microseconds of every span called `name`.
  Samples DurationsUs(const std::string& name) const;
  /// Duration in microseconds of the span `name` of `request`, by
  /// request id; requests without one are absent.
  std::map<int64_t, double> ByRequestUs(const std::string& name) const;
  /// Tab-separated dump: index, name, start_us, end_us, parent, request.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ report

/// Everything one run prints: metrics by name and unit, the attempted
/// and failed operation counts, correctness, and the work counters that
/// must repeat exactly between runs with the same seed.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return metrics_.count(name); }
  void Counter(const std::string& name, double value) {
    counters_[name] = value;
  }
  /// One operation of the workload; a failed one is logged to stderr.
  void Attempt(const Status& status, const char* what);
  /// A correctness check that did not hold: the run reports correct=false.
  void Mismatch(const std::string& what);

  bool correct() const { return mismatches_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// `{"name": {"value": v, "unit": u}, ...}` restricted to `names`.
  std::string MetricsJson(const std::vector<std::string>& names) const;
  std::string CountersJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, double> counters_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

// ------------------------------------------------------------ inputs

/// One read of a stream: the parsed query and its TCF1 request line.
struct StreamQuery {
  ServeQuery query;
  std::string line;
};

/// Short uniform reads: 1-3 items drawn uniformly from the active
/// items at one of the alphas {0, 0.05, 0.1, 0.15}; one read in five
/// repeats one of 32 hot reads.
std::vector<StreamQuery> UniformShortStream(const DatabaseNetwork& net,
                                            size_t n, uint64_t seed);

/// Seeded UPDATE batches of four additions each: transactions of 1-3
/// dictionary items at random vertices (70%) and edges between random
/// vertices not yet adjacent (30%). Keeps its own edge set so no batch
/// repeats an edge, and remembers every batch handed out.
class BatchSource {
 public:
  BatchSource(const DatabaseNetwork& net, uint64_t seed);
  NetworkUpdate Next();
  const std::vector<NetworkUpdate>& issued() const { return issued_; }

 private:
  Rng rng_;
  size_t num_vertices_;
  size_t num_items_;
  std::set<std::pair<VertexId, VertexId>> edges_;
  std::vector<NetworkUpdate> issued_;
};

// ------------------------------------------------------------ oracles

/// Graph anti-monotonicity (Prop. 5.1): every node's edge set C*_p(0)
/// lies inside its parent's. Returns the number of violations.
size_t CountAntiMonotoneViolations(const TcTree& tree);

/// Recomputes a seeded sample of `samples` present patterns (at 0 and at
/// one stored level threshold) and of `samples` supported patterns that
/// are absent from the tree with BruteForceMaximalPatternTruss on their
/// theme networks. Mismatches go to `report`.
void CheckTreeAgainstBruteForce(const DatabaseNetwork& net,
                                const TcTree& tree, size_t samples,
                                uint64_t seed, Report* report);

/// Nesting property of one answer: each returned pattern's size-(|p|-1)
/// subsets are returned too, with edge sets that contain p's. Returns
/// an empty string when it holds, else a description.
std::string CheckNesting(const std::vector<WireTruss>& answer);

/// Recomputes the full answer to `query` by brute force: every subset
/// p of the query items with a non-empty C*_p(alpha), in any order.
/// Compares patterns, vertices and edges with the wire answer.
std::string CheckAgainstBruteForce(const DatabaseNetwork& net,
                                   const ServeQuery& query,
                                   const std::vector<WireTruss>& answer);

/// Compares a wire answer with trusses computed in-process.
std::string CompareAnswers(const ItemDictionary& dictionary,
                           const std::vector<PatternTruss>& expected,
                           const std::vector<WireTruss>& actual);

}  // namespace tcf::perfbench

#endif  // TCF_PERFBENCH_BENCH_H_
