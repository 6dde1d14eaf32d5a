#include "serve/serve_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

namespace tcf {
namespace {

/// Nearest-rank percentile of an unsorted sample set.
double ExactPercentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::max<size_t>(rank, 1) - 1];
}

/// A log2-bucket estimate is at most one bucket (a factor of 2) away
/// from the exact value.
void ExpectWithinOneBucket(double estimate, double exact, const char* what) {
  EXPECT_GE(estimate, exact / 2) << what;
  EXPECT_LE(estimate, exact * 2) << what;
}

void ExpectPercentilesWithinOneBucket(const std::vector<double>& samples) {
  MetricsRegistry registry;
  ServeStats stats(registry);
  for (double us : samples) stats.RecordQuery(us, /*num_trusses=*/2);
  const ServeReport report = stats.Report();
  EXPECT_EQ(report.queries, samples.size());
  EXPECT_EQ(report.trusses_returned, 2 * samples.size());
  double sum = 0;
  for (double us : samples) sum += us;
  EXPECT_DOUBLE_EQ(report.mean_us, sum / static_cast<double>(samples.size()));
  ExpectWithinOneBucket(report.p50_us, ExactPercentile(samples, 0.50), "p50");
  ExpectWithinOneBucket(report.p90_us, ExactPercentile(samples, 0.90), "p90");
  ExpectWithinOneBucket(report.p99_us, ExactPercentile(samples, 0.99), "p99");
  // max is the upper bound of the highest non-empty bucket.
  const double max = *std::max_element(samples.begin(), samples.end());
  EXPECT_DOUBLE_EQ(report.max_us, std::exp2(std::ceil(std::log2(max))));
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.qps, 0.0);
}

TEST(ServeStatsTest, PercentilesOfUniformSamplesWithinOneBucket) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  ExpectPercentilesWithinOneBucket(samples);
}

TEST(ServeStatsTest, PercentilesOfBimodalSamplesWithinOneBucket) {
  std::vector<double> samples(90, 10.0);
  samples.insert(samples.end(), 10, 5000.0);
  ExpectPercentilesWithinOneBucket(samples);
}

TEST(ServeStatsTest, RecordsIntoTheRegistryInstruments) {
  MetricsRegistry registry;
  ServeStats stats(registry);
  stats.RecordQuery(3.0, 4);
  const std::string text = registry.Render();
  EXPECT_NE(text.find("tcf_query_total_us_count 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("tcf_query_trusses_total 4\n"), std::string::npos)
      << text;
}

TEST(ServeStatsTest, EmptyReportIsAllZero) {
  MetricsRegistry registry;
  ServeStats stats(registry);
  const ServeReport report = stats.Report();
  EXPECT_EQ(report.queries, 0u);
  EXPECT_EQ(report.trusses_returned, 0u);
  EXPECT_EQ(report.mean_us, 0.0);
  EXPECT_EQ(report.p50_us, 0.0);
  EXPECT_EQ(report.p90_us, 0.0);
  EXPECT_EQ(report.p99_us, 0.0);
  EXPECT_EQ(report.max_us, 0.0);
  EXPECT_EQ(report.qps, 0.0);
}

TEST(ServeStatsTest, SinceCoversOnlyTheSecondPass) {
  MetricsRegistry registry;
  ServeStats stats(registry);
  for (int i = 0; i < 50; ++i) stats.RecordQuery(1000.0, 1);  // slow pass
  stats.RecordBatch(7);
  const ServeReport first = stats.Report();
  for (int i = 0; i < 20; ++i) stats.RecordQuery(3.0, 2);  // fast pass
  stats.RecordBatch(2);
  const ServeReport pass = stats.Report().Since(first);
  EXPECT_EQ(pass.queries, 20u);
  EXPECT_EQ(pass.trusses_returned, 40u);
  EXPECT_DOUBLE_EQ(pass.mean_us, 3.0);
  EXPECT_LE(pass.p99_us, 4.0);  // the 1000 us samples are gone
  EXPECT_DOUBLE_EQ(pass.max_us, 4.0);
  EXPECT_EQ(pass.batches, 1u);
  EXPECT_EQ(pass.batch_queries, 2u);
  EXPECT_EQ(pass.batch_max_depth, 7u);  // a gauge keeps its value
  EXPECT_GE(pass.wall_seconds, 0.0);
  EXPECT_LE(pass.wall_seconds, stats.Report().wall_seconds);
}

// Many recorders and one scraper (after xrcu's mutator tests): totals
// are exact once the recorders join, and no scrape ever sees a counter
// go backwards.
TEST(ServeStatsTest, ConcurrentRecordersAndScraperLoseNothing) {
  MetricsRegistry registry;
  ServeStats stats(registry);
  constexpr int kRecorders = 16;
  constexpr int kPerRecorder = 2000;
  std::atomic<bool> done{false};
  std::atomic<int> regressions{0};
  std::thread scraper([&] {
    uint64_t last_queries = 0;
    uint64_t last_trusses = 0;
    while (!done.load(std::memory_order_acquire)) {
      const ServeReport report = stats.Report();
      if (report.queries < last_queries ||
          report.trusses_returned < last_trusses) {
        regressions.fetch_add(1);
      }
      last_queries = report.queries;
      last_trusses = report.trusses_returned;
      (void)registry.Render();
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&stats, t] {
      for (int i = 0; i < kPerRecorder; ++i) {
        stats.RecordQuery(static_cast<double>(1 + (i + t) % 500), 1);
      }
    });
  }
  for (auto& th : recorders) th.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  const ServeReport report = stats.Report();
  EXPECT_EQ(report.queries, uint64_t{kRecorders} * kPerRecorder);
  EXPECT_EQ(report.trusses_returned, uint64_t{kRecorders} * kPerRecorder);
  EXPECT_LE(report.max_us, 512.0);
  EXPECT_EQ(regressions.load(), 0);
}

TEST(ServeStatsTest, ReportRendersCacheCounters) {
  MetricsRegistry registry;
  ServeStats stats(registry);
  stats.RecordQuery(5.0, 1);
  ResultCacheStats cache;
  cache.hits = 3;
  cache.misses = 1;
  const ServeReport report = stats.Report(cache);
  EXPECT_DOUBLE_EQ(report.cache.HitRate(), 0.75);

  std::ostringstream os;
  report.ToTable().Print(os);
  EXPECT_NE(os.str().find("cache hit rate"), std::string::npos);
  EXPECT_NE(os.str().find("throughput"), std::string::npos);
}

}  // namespace
}  // namespace tcf
