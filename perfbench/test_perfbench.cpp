// Tests for the benchmark's own measuring code (bench_util.hpp).
#include <gtest/gtest.h>

#include "bench_util.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankWithSampleCount) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const Percentile p99 = percentile(v, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = percentile(v, 50.0);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(Percentile, TooFewSamplesShowInBeyond) {
  const Percentile p99 = percentile({3.0, 1.0, 2.0}, 99.0);
  EXPECT_EQ(p99.value, 3.0);
  EXPECT_EQ(p99.samples, 3u);
  EXPECT_EQ(p99.beyond, 0u);
  EXPECT_EQ(percentile({}, 50.0).samples, 0u);
}

TEST(Digest, RejectsOneFlippedGenomeBit) {
  std::vector<JobRecord> records;
  for (std::uint64_t i = 0; i < 64; ++i) {
    records.push_back({splitmix64(i), splitmix64(i + 100) & 0xFFFFFFFFFull,
                       20 + i, 1000 * i});
  }
  const std::uint64_t golden = digest(records);
  EXPECT_EQ(digest(records), golden);
  for (int bit = 0; bit < 36; ++bit) {
    auto flipped = records;
    flipped[17].best_genome ^= std::uint64_t{1} << bit;
    EXPECT_NE(digest(flipped), golden) << "bit " << bit;
  }
  auto reordered = records;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(digest(reordered), golden);
}

TEST(Spans, SelfTimeIsSpanMinusChildrenAndResidueClosesTheSum) {
  // bench [0,100): serve [10,40), core [50,90) with children ga [55,80)
  // and fitness [80,88); ga has a child rtl [60,65).
  const std::vector<Span> spans = {
      {"bench", 0, 100, -1, 0},  {"serve.submit", 10, 40, 0, 1},
      {"core.engine", 50, 90, 0, 1}, {"ga.generation", 55, 80, 2, 1},
      {"fitness.score", 80, 88, 2, 1}, {"rtl.run", 60, 65, 3, 1},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 30 - 40);  // the residue
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 40 - 25 - 8);
  EXPECT_EQ(self[3], 25 - 5);
  EXPECT_EQ(self[4], 8);
  EXPECT_EQ(self[5], 5);

  // A second thread's trace adds its own root to the wall time.
  const std::vector<Span> other = {{"bench", 0, 50, -1, 0},
                                   {"serve.wait", 0, 45, 0, 2}};
  const LayerBudget b = layer_budget({&spans, &other});
  EXPECT_EQ(b.wall_ns, 150);
  std::int64_t sum = 0;
  for (const auto& [layer, ns] : b.self_ns) sum += ns;
  EXPECT_EQ(sum, b.wall_ns);
  EXPECT_EQ(b.self_ns.at("bench"), 30 + 5);
  EXPECT_EQ(b.self_ns.at("serve"), 30 + 45);
  EXPECT_EQ(b.self_ns.at("core"), 7);
}

TEST(Spans, OverlappingChildrenAreSubtractedOnce) {
  const std::vector<Span> spans = {{"core.engine", 0, 40, -1, 1},
                                   {"ga.generation", 5, 30, 0, 1},
                                   {"fitness.score", 20, 35, 0, 1},
                                   {"rtl.run", 38, 60, 0, 1}};
  EXPECT_EQ(self_times(spans)[0], 40 - 30 - 2);  // [5,35) and [38,40)
}

TEST(Spans, TraceNestsOpenSpans) {
  Trace t;
  t.open("bench");
  t.open("core.engine", 7);
  t.add("ga.generation", 1, 2, 7);
  t.close();
  t.close();
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 1);
  EXPECT_EQ(t.spans()[1].job, 7u);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[1].end_ns);
}

TEST(Args, StrictParsing) {
  const Args a = parse_args({"--workload", "hw_fleet", "--seed", "7",
                             "--seconds", "3", "--trace", "1", "--jobs", "5"});
  EXPECT_EQ(a.workload, Workload::kHwFleet);
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(a.seconds, 3.0);
  EXPECT_TRUE(a.trace);
  EXPECT_EQ(a.jobs, 5u);
  const std::vector<std::string> base = {"--workload", "sw_fleet", "--seed",
                                         "1", "--seconds", "1"};
  auto with = [&](std::vector<std::string> extra) {
    auto v = base;
    v.insert(v.end(), extra.begin(), extra.end());
    return v;
  };
  EXPECT_THROW((void)parse_args(with({"--out", "x"})), std::invalid_argument);
  EXPECT_THROW((void)parse_args(with({"--jobs", "0"})), std::invalid_argument);
  EXPECT_THROW((void)parse_args(with({"--trace", "2"})), std::invalid_argument);
  EXPECT_THROW((void)parse_args(with({"--jobs"})), std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--workload", "mixed", "--seed", "1",
                                 "--seconds", "1"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--workload", "sw_fleet", "--seed", "1",
                                 "--seconds", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--workload", "sw_fleet", "--seed", "-1",
                                 "--seconds", "1"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_args({"--seed", "1", "--seconds", "1"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
