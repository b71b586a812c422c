// Tests of the benchmark's aggregation code (perfbench/src/stats.hpp).
#include "stats.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(SummarizeBest, TakesEachOpsFastestRepetition) {
  // Op 1's 90 and op 2's 500 are interference; the floors are 10, 20, 40.
  const BestSummary s = summarize_best({{12, 10, 11}, {90, 20, 25}, {40, 500}});
  EXPECT_EQ(s.ops, 3u);
  EXPECT_EQ(s.sum, 70);
  EXPECT_EQ(s.median, 20);  // op_ms: the typical op
  EXPECT_EQ(s.max, 40);     // op_max_ms: the slowest op class
}

TEST(SummarizeBest, SkipsOpsWithoutRepetitions) {
  const BestSummary s = summarize_best({{5}, {}, {7, 6}});
  EXPECT_EQ(s.ops, 2u);
  EXPECT_EQ(s.sum, 11);
  EXPECT_EQ(s.median, 5.5);
  EXPECT_EQ(s.max, 6);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const Percentile p50 = percentile(one_to(10), 50000);
  EXPECT_EQ(p50.value, 5);
  EXPECT_EQ(p50.beyond, 5u);
  const Percentile p90 = percentile(one_to(10), 90000);
  EXPECT_EQ(p90.value, 9);
  EXPECT_EQ(p90.beyond, 1u);
  // Rank ceil(0.999 * 1000) = 999 exactly, with no rounding drift.
  const Percentile p999 = percentile(one_to(1000), 99900);
  EXPECT_EQ(p999.value, 999);
  EXPECT_EQ(p999.beyond, 1u);
  EXPECT_EQ(percentile({}, 50000).value, 0);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  // n = 100: p90 leaves 10 beyond, p99 only 1.
  Percentile t = tail_percentile(one_to(100));
  EXPECT_EQ(t.pct, 90);
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(t.beyond, 10u);
  // n = 99: p90 has rank 90 and 9 beyond, so the tail falls back to p50.
  t = tail_percentile(one_to(99));
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.beyond, 49u);
  // n = 1000: p99 leaves 10 beyond, p99.9 one.
  t = tail_percentile(one_to(1000));
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  // n = 10000: p99.9 leaves 10 beyond.
  t = tail_percentile(one_to(10000));
  EXPECT_EQ(t.pct, 99.9);
  EXPECT_EQ(t.value, 9990);
}

TEST(SelfTimes, SubtractsDirectChildrenOnly) {
  // op [0,100) with children a [10,30) and b [50,90); b has a child
  // c [60,70), which counts against b but not against op.
  const std::vector<SpanRecord> spans = {
      {"op", 0, 100, -1, 0},
      {"a", 10, 30, 0, 0},
      {"b", 50, 90, 0, 0},
      {"c", 60, 70, 2, 0},
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::uint64_t>{40, 20, 30, 10}));
}

TEST(SelfTimes, OverlappingAndOverhangingChildrenCountOnce) {
  // Children [10,40) and [30,60) overlap on [30,40); [90,120) overhangs
  // the parent's end and counts only up to 100.
  const std::vector<SpanRecord> spans = {
      {"p", 0, 100, -1, 0},
      {"x", 10, 40, 0, 0},
      {"y", 30, 60, 0, 0},
      {"z", 90, 120, 0, 0},
  };
  EXPECT_EQ(self_times(spans)[0], 100u - 50u - 10u);
}

TEST(BestTable, BestPerUnitAcrossPassesThenSummed) {
  BestTable t;
  t.add_pass({{{0, "host.run"}, 10}, {{1, "host.run"}, 30}});
  t.add_pass({{{0, "host.run"}, 12}, {{1, "host.run"}, 25},
              {{1, "serve.hit"}, 4}});
  EXPECT_EQ(t.bests("host.run"), (std::vector<double>{10, 25}));
  EXPECT_EQ(t.sum("host.run"), 35);
  EXPECT_EQ(t.best(1, "serve.hit"), 4);
  EXPECT_LT(t.best(0, "serve.hit"), 0);
  EXPECT_EQ(t.sum("missing"), 0);
  EXPECT_EQ(t.total(), 39);
}

}  // namespace
}  // namespace perfbench
