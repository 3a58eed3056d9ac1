// Tests for streaming statistics and histograms.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace leo::util {
namespace {

/// Uniform double in [0, 1) with 53 bits of precision.
double unit_double(Xoshiro256& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SmallKnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(-100.0);  // clamps to first bin
  h.add(100.0);   // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Correlation, PerfectPositiveAndNegative) {
  Correlation pos;
  Correlation neg;
  for (int i = 0; i < 50; ++i) {
    pos.add(i, 2.0 * i + 3.0);
    neg.add(i, -0.5 * i + 1.0);
  }
  EXPECT_NEAR(pos.r(), 1.0, 1e-12);
  EXPECT_NEAR(neg.r(), -1.0, 1e-12);
}

TEST(Correlation, IndependentSamplesNearZero) {
  Xoshiro256 rng(42);
  Correlation c;
  for (int i = 0; i < 20'000; ++i) {
    c.add(unit_double(rng), unit_double(rng));
  }
  EXPECT_NEAR(c.r(), 0.0, 0.03);
}

TEST(Correlation, DegenerateCasesReturnZero) {
  Correlation c;
  EXPECT_EQ(c.r(), 0.0);
  c.add(1.0, 2.0);
  EXPECT_EQ(c.r(), 0.0);  // n < 2
  Correlation flat;
  flat.add(1.0, 5.0);
  flat.add(1.0, 7.0);
  EXPECT_EQ(flat.r(), 0.0);  // zero x-variance
}

TEST(Confidence95, ShrinksWithSampleSize) {
  Xoshiro256 rng(5);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10; ++i) small.add(unit_double(rng));
  for (int i = 0; i < 1000; ++i) large.add(unit_double(rng));
  EXPECT_GT(confidence95(small), confidence95(large));
  EXPECT_EQ(confidence95(RunningStats{}), 0.0);
}

}  // namespace
}  // namespace leo::util
