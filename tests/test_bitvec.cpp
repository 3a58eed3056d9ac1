// Tests for util::BitVec — the bit container under genomes, RTL buses and
// configuration frames.
#include "util/bitvec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace leo::util {
namespace {

/// Uniform random bit vector of the given width, filled 64 bits at a time.
BitVec random_bits(Xoshiro256& rng, std::size_t width) {
  BitVec v(width);
  for (std::size_t lo = 0; lo < width; lo += 64) {
    v.set_slice_u64(lo, std::min<std::size_t>(64, width - lo), rng.next_u64());
  }
  return v;
}

TEST(BitVec, DefaultIsEmpty) {
  const BitVec v;
  EXPECT_EQ(v.width(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(BitVec, ConstructedZeroed) {
  const BitVec v(100);
  EXPECT_EQ(v.width(), 100u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, ValueConstructorMasksToWidth) {
  const BitVec v(4, 0xFF);
  EXPECT_EQ(v.to_u64(), 0xFu);
}

TEST(BitVec, SetGetFlip) {
  BitVec v(70);
  v.set(0, true);
  v.set(69, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(69));
  EXPECT_EQ(v.popcount(), 2u);
  v.flip(69);
  EXPECT_FALSE(v.get(69));
  v.flip(5);
  EXPECT_TRUE(v.get(5));
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(36);
  EXPECT_THROW((void)v.get(36), std::out_of_range);
  EXPECT_THROW(v.set(100, true), std::out_of_range);
  EXPECT_THROW(v.flip(36), std::out_of_range);
  EXPECT_THROW((void)v.slice_u64(30, 10), std::out_of_range);
}

TEST(BitVec, SliceU64WithinWord) {
  BitVec v(36, 0xABCDE1234ULL);
  EXPECT_EQ(v.slice_u64(0, 4), 0x4u);
  EXPECT_EQ(v.slice_u64(4, 8), 0x23u);
  EXPECT_EQ(v.slice_u64(0, 36), 0xABCDE1234ULL);
}

TEST(BitVec, SliceU64AcrossWordBoundary) {
  BitVec v(128);
  v.set_slice_u64(60, 8, 0xA5);
  EXPECT_EQ(v.slice_u64(60, 8), 0xA5u);
  // Neighbours untouched.
  EXPECT_EQ(v.slice_u64(0, 60), 0u);
  EXPECT_EQ(v.slice_u64(68, 60), 0u);
}

TEST(BitVec, SetSliceDoesNotDisturbNeighbours) {
  BitVec v(24, 0xFFFFFF);
  v.set_slice_u64(8, 8, 0x00);
  EXPECT_EQ(v.slice_u64(0, 8), 0xFFu);
  EXPECT_EQ(v.slice_u64(8, 8), 0x00u);
  EXPECT_EQ(v.slice_u64(16, 8), 0xFFu);
}

TEST(BitVec, SliceExtractsSubvector) {
  BitVec v(100);
  v.set(64, true);
  v.set(65, true);
  const BitVec s = v.slice(64, 4);
  EXPECT_EQ(s.width(), 4u);
  EXPECT_EQ(s.to_u64(), 0x3u);
}

TEST(BitVec, ToU64RejectsWide) {
  const BitVec v(65);
  EXPECT_THROW((void)v.to_u64(), std::logic_error);
}

TEST(BitVec, FromBinaryMsbFirst) {
  const BitVec v = BitVec::from_binary("1010");
  EXPECT_EQ(v.width(), 4u);
  EXPECT_EQ(v.to_u64(), 0xAu);
}

TEST(BitVec, FromBinaryIgnoresUnderscores) {
  EXPECT_EQ(BitVec::from_binary("1111_0000").to_u64(), 0xF0u);
}

TEST(BitVec, FromBinaryRejectsJunk) {
  EXPECT_THROW(BitVec::from_binary("10x1"), std::invalid_argument);
}

TEST(BitVec, BinaryRoundTrip) {
  const BitVec v(36, 0x5A5A5A5A5ULL);
  EXPECT_EQ(BitVec::from_binary(v.to_binary()), v);
}

TEST(BitVec, ToHex) {
  EXPECT_EQ(BitVec(8, 0xAB).to_hex(), "0xab");
  EXPECT_EQ(BitVec(36, 0xF00000001ULL).to_hex(), "0xf00000001");
}

TEST(BitVec, HammingDistance) {
  const BitVec a(36, 0b1010);
  const BitVec b(36, 0b0110);
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(BitVec, HammingDistanceWidthMismatchThrows) {
  EXPECT_THROW((void)BitVec(8).hamming_distance(BitVec(9)),
               std::invalid_argument);
}

TEST(BitVec, ClearZeroes) {
  BitVec v(80);
  v.set(3, true);
  v.set(79, true);
  v.clear();
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, EqualityIsValueBased) {
  BitVec a(36, 7);
  BitVec b(36, 7);
  EXPECT_EQ(a, b);
  b.flip(0);
  EXPECT_NE(a, b);
}

TEST(BitVec, TopWordStaysMasked) {
  BitVec v(36);
  v.set_slice_u64(0, 36, ~std::uint64_t{0});
  EXPECT_EQ(v.words()[0], (std::uint64_t{1} << 36) - 1);
}

/// Property sweep: slice/set_slice round-trip at every offset and width.
class BitVecSliceProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVecSliceProperty, SliceRoundTripAtEveryOffset) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n);
  BitVec v = random_bits(rng, 130);
  for (std::size_t lo = 0; lo + n <= v.width(); lo += 7) {
    const std::uint64_t pattern =
        rng.next_u64() & ((n >= 64) ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << n) - 1);
    BitVec w = v;
    w.set_slice_u64(lo, n, pattern);
    EXPECT_EQ(w.slice_u64(lo, n), pattern) << "lo=" << lo << " n=" << n;
    // Everything else unchanged.
    for (std::size_t i = 0; i < v.width(); ++i) {
      if (i < lo || i >= lo + n) {
        EXPECT_EQ(w.get(i), v.get(i)) << "i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVecSliceProperty,
                         ::testing::Values(1, 3, 8, 17, 31, 36, 48, 63, 64));

/// Property: popcount equals the sum of individual bits.
TEST(BitVec, PopcountMatchesBits) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const BitVec v = random_bits(rng, 200);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < v.width(); ++i) expected += v.get(i);
    EXPECT_EQ(v.popcount(), expected);
  }
}

}  // namespace
}  // namespace leo::util
