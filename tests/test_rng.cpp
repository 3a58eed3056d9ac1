// Tests for the deterministic random generators.
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

TEST(Xoshiro256, MixedDrawStreamMatchesGolden) {
  // One million mixed next_u64/next_below/next_bool_p8 draws, the kind
  // and argument of each picked by SplitMix64(7). The digest folds every
  // draw (FNV-1a over 64-bit words). Both it and the final state are
  // golden values, so any change to the stream or to how many words a
  // draw consumes fails.
  Xoshiro256 rng(2026);
  std::vector<std::uint64_t> bounds = {1, 2, 1152,
                                       (std::uint64_t{1} << 63) + 1};
  for (unsigned k = 2; k < 64; ++k) bounds.push_back(std::uint64_t{1} << k);
  SplitMix64 pick(7);
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t choice = pick.next_u64();
    std::uint64_t v = 0;
    switch (choice % 3) {
      case 0:
        v = rng.next_u64();
        break;
      case 1:
        v = rng.next_below(bounds[(choice >> 8) % bounds.size()]);
        break;
      default:
        v = rng.next_bool_p8(static_cast<std::uint8_t>(choice >> 8));
    }
    digest = (digest ^ v) * 0x100000001B3ULL;
  }
  EXPECT_EQ(digest, 0xA34AEA547EF33B49ULL);
  EXPECT_EQ(rng.state(),
            (Xoshiro256::State{0x719E0350C9BCB18BULL, 0xB4FB9F63E51CBF26ULL,
                               0x8DA987878D174A56ULL, 0x42884FB386896784ULL}));
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 35ull, 36ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro256, NextBelowZeroThrows) {
  Xoshiro256 rng(7);
  EXPECT_THROW((void)rng.next_below(0), std::invalid_argument);
}

TEST(Xoshiro256, NextBelowCoversRange) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, NextBelowApproximatelyUniform) {
  Xoshiro256 rng(13);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets / 10);
  }
}

TEST(Xoshiro256, NextBoolP8MatchesProbability) {
  Xoshiro256 rng(19);
  const Prob8 p = Prob8::from_double(0.8);
  int hits = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) hits += rng.next_bool_p8(p.raw());
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, p.value(), 0.01);
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
