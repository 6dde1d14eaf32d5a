#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace tcf::perfbench {

// ------------------------------------------------------------ clocks

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
const double kProcessStart = Now();
}  // namespace

double SinceStart() { return Now() - kProcessStart; }

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssKib() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

// ------------------------------------------------------------ samples

double Samples::Sum() const {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values.empty() ? 0.0 : Sum() / static_cast<double>(values.size());
}

double Samples::Quantile(double q) const {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - std::floor(pos));
}

// ------------------------------------------------------------ spans

int64_t SpanLog::Add(const char* name, double start, double end,
                     int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

Samples SpanLog::DurationsUs(const std::string& name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (name == s.name) out.Add((s.end - s.start) * 1e6);
  }
  return out;
}

std::map<int64_t, double> SpanLog::ByRequestUs(const std::string& name) const {
  std::map<int64_t, double> out;
  for (const Span& s : spans_) {
    if (s.request >= 0 && name == s.name) {
      out[s.request] = (s.end - s.start) * 1e6;
    }
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tstart_us\tend_us\tparent\trequest\n");
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%.3f\t%.3f\t%lld\t%lld\n", i, s.name,
                 (s.start - origin) * 1e6, (s.end - origin) * 1e6,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ report

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Attempt(const Status& status, const char* what) {
  ++attempted_;
  if (!status.ok()) {
    ++failed_;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
  }
}

void Report::Mismatch(const std::string& what) {
  ++mismatches_;
  std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
}

namespace {
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string Report::MetricsJson(const std::vector<std::string>& names) const {
  std::string out = "{";
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Number(it->second.first) +
           ", \"unit\": \"" + it->second.second + "\"}";
  }
  return out + "}";
}

std::string Report::CountersJson() const {
  std::string out = "{";
  for (const auto& [name, value] : counters_) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + Number(value);
  }
  return out + "}";
}

// ------------------------------------------------------------ inputs

namespace {
StreamQuery MakeStreamQuery(const ItemDictionary& dictionary, Itemset items,
                            double alpha) {
  StreamQuery q;
  q.query.items = std::move(items);
  q.query.alpha = alpha;
  q.line = EncodeQueryLine(dictionary, q.query);
  return q;
}
}  // namespace

std::vector<StreamQuery> UniformShortStream(const DatabaseNetwork& net,
                                            size_t n, uint64_t seed) {
  const std::vector<ItemId> items = net.ActiveItems();
  Rng rng(seed);
  auto random_query = [&] {
    const size_t len = 1 + rng.NextUint64(3);
    std::vector<ItemId> subset;
    for (size_t i = 0; i < len; ++i) {
      subset.push_back(items[rng.NextUint64(items.size())]);
    }
    const double alpha = 0.05 * static_cast<double>(rng.NextUint64(4));
    return MakeStreamQuery(net.dictionary(), Itemset(std::move(subset)),
                           alpha);
  };
  std::vector<StreamQuery> hot;
  for (size_t i = 0; i < 32; ++i) hot.push_back(random_query());
  std::vector<StreamQuery> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stream.push_back(rng.NextBool(0.2) ? hot[rng.NextUint64(hot.size())]
                                       : random_query());
  }
  return stream;
}

BatchSource::BatchSource(const DatabaseNetwork& net, uint64_t seed)
    : rng_(seed),
      num_vertices_(net.num_vertices()),
      num_items_(net.num_items()) {
  for (const Edge& e : net.graph().edges()) edges_.insert({e.u, e.v});
}

NetworkUpdate BatchSource::Next() {
  NetworkUpdate u;
  while (u.transactions.size() + u.edges.size() < 4) {
    if (rng_.NextBool(0.3)) {
      const auto a = static_cast<VertexId>(rng_.NextUint64(num_vertices_));
      const auto b = static_cast<VertexId>(rng_.NextUint64(num_vertices_));
      if (a == b) continue;
      const Edge e = MakeEdge(a, b);
      if (!edges_.insert({e.u, e.v}).second) continue;
      u.edges.push_back(e);
    } else {
      NetworkUpdate::TxInsert tx;
      tx.vertex = static_cast<VertexId>(rng_.NextUint64(num_vertices_));
      std::vector<ItemId> ids;
      const size_t len = 1 + rng_.NextUint64(3);
      for (size_t k = 0; k < len; ++k) {
        ids.push_back(static_cast<ItemId>(rng_.NextUint64(num_items_)));
      }
      tx.items = Itemset(std::move(ids));
      u.transactions.push_back(std::move(tx));
    }
  }
  issued_.push_back(u);
  return u;
}

}  // namespace tcf::perfbench
