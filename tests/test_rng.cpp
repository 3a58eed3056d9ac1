// Tests for the deterministic random sources.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "util/fixed.hpp"

namespace leo::util {
namespace {

TEST(SplitMix64, DeterministicAndSeedSensitive) {
  SplitMix64 a(1);
  SplitMix64 b(1);
  SplitMix64 c(2);
  const std::uint64_t va = a.next_u64();
  EXPECT_EQ(va, b.next_u64());
  EXPECT_NE(va, c.next_u64());
}

TEST(SplitMix64, KnownVector) {
  // Reference value of splitmix64(seed=0) first output (widely published).
  SplitMix64 g(0);
  EXPECT_EQ(g.next_u64(), 0xE220A8397B1DCDAFULL);
}

TEST(Xoshiro256, DeterministicStream) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Xoshiro256, LongJumpDecorrelates) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  b.long_jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, ConcreteDrawsMatchDrawsThroughRandomSource) {
  Xoshiro256 through_base(2026);
  Xoshiro256 concrete(2026);
  RandomSource& base = through_base;
  std::vector<std::uint64_t> bounds = {1, 2, 1152,
                                       (std::uint64_t{1} << 63) + 1};
  for (unsigned k = 2; k < 64; ++k) bounds.push_back(std::uint64_t{1} << k);
  SplitMix64 pick(7);  // chooses each draw's kind and argument
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t choice = pick.next_u64();
    switch (choice % 3) {
      case 0:
        ASSERT_EQ(base.next_u64(), concrete.next_u64()) << "draw " << i;
        break;
      case 1: {
        const std::uint64_t bound = bounds[(choice >> 8) % bounds.size()];
        ASSERT_EQ(base.next_below(bound), concrete.next_below(bound))
            << "draw " << i << " bound " << bound;
        break;
      }
      default: {
        const auto p8 = static_cast<std::uint8_t>(choice >> 8);
        ASSERT_EQ(base.next_bool_p8(p8), concrete.next_bool_p8(p8))
            << "draw " << i << " p8 " << unsigned{p8};
      }
    }
  }
  EXPECT_EQ(through_base.state(), concrete.state());
  EXPECT_THROW((void)concrete.next_below(0), std::invalid_argument);
}

TEST(RandomSource, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 35ull, 36ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RandomSource, NextBelowZeroThrows) {
  Xoshiro256 rng(7);
  EXPECT_THROW((void)rng.next_below(0), std::invalid_argument);
}

TEST(RandomSource, NextBelowCoversRange) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomSource, NextBelowApproximatelyUniform) {
  Xoshiro256 rng(13);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets / 10);
  }
}

TEST(RandomSource, NextDoubleInUnitInterval) {
  Xoshiro256 rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(RandomSource, NextBoolP8MatchesProbability) {
  Xoshiro256 rng(19);
  const Prob8 p = Prob8::from_double(0.8);
  int hits = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) hits += rng.next_bool_p8(p.raw());
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, p.value(), 0.01);
}

TEST(RandomSource, NextBitsWidthAndVariety) {
  Xoshiro256 rng(23);
  const BitVec v = rng.next_bits(137);
  EXPECT_EQ(v.width(), 137u);
  // Overwhelmingly unlikely to be degenerate.
  EXPECT_GT(v.popcount(), 30u);
  EXPECT_LT(v.popcount(), 107u);
}

TEST(Prob8, QuantizesAsHardwareDoes) {
  EXPECT_EQ(Prob8::from_double(0.0).raw(), 0);
  EXPECT_EQ(Prob8::from_double(1.0).raw(), 255);  // "always" is 255/256
  EXPECT_EQ(Prob8::from_double(0.8).raw(), 205);  // paper's selection 0.8
  EXPECT_EQ(Prob8::from_double(0.7).raw(), 179);  // paper's crossover 0.7
}

TEST(Prob8, RejectsOutOfRange) {
  EXPECT_THROW(Prob8::from_double(-0.1), std::invalid_argument);
  EXPECT_THROW(Prob8::from_double(1.1), std::invalid_argument);
}

}  // namespace
}  // namespace leo::util
