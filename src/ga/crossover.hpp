// crossover.hpp — recombination operators.
//
// The GAP implements single-point crossover (§3.2): cut both genomes at a
// random position and swap the tails. Two-point and uniform variants are
// software baselines for the operator-ablation bench. All three are mask
// arithmetic on packed genomes: a swap mask m selects the loci that trade
// places, and each child is its parent XOR ((a ^ b) & m).
//
// The operators form a closed set (the Crossover variant): each is a
// concrete class whose apply(a, b, width, rng) produces two children from
// two `width`-bit parents, drawing from util::Xoshiro256 so
// GaEngine's generation loop inlines it. apply() throws
// std::invalid_argument unless width is in [2, 64] and both parents fit
// in it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <variant>

#include "ga/individual.hpp"
#include "util/rng.hpp"

namespace leo::ga {

using GenomePair = std::pair<std::uint64_t, std::uint64_t>;

namespace detail {

inline void check_parents(std::uint64_t a, std::uint64_t b, std::size_t width) {
  if (width < 2 || width > kMaxGenomeBits || ((a | b) & ~genome_mask(width))) {
    throw std::invalid_argument(
        "crossover: parents must fit a shared width in [2, 64]");
  }
}

/// Low `n` bits set, n in [0, 63].
constexpr std::uint64_t low_bits(std::uint64_t n) noexcept {
  return (std::uint64_t{1} << n) - 1;
}

/// Children of swapping the loci selected by `swap`.
constexpr GenomePair exchange(std::uint64_t a, std::uint64_t b,
                              std::uint64_t swap) noexcept {
  const std::uint64_t diff = (a ^ b) & swap;
  return {a ^ diff, b ^ diff};
}

}  // namespace detail

/// Cut point c drawn uniformly from [1, width-1]; children are
/// a[0..c)+b[c..) and b[0..c)+a[c..). (c = 0 or width would clone the
/// parents, which the crossover *threshold* already accounts for.)
class SinglePointCrossover {
 public:
  [[nodiscard]] GenomePair apply(std::uint64_t a, std::uint64_t b,
                                 std::size_t width,
                                 util::Xoshiro256& rng) const {
    detail::check_parents(a, b, width);
    const std::uint64_t c = 1 + rng.next_below(width - 1);
    return detail::exchange(a, b, ~detail::low_bits(c));
  }
};

/// Swaps the segment between two distinct cut points.
class TwoPointCrossover {
 public:
  [[nodiscard]] GenomePair apply(std::uint64_t a, std::uint64_t b,
                                 std::size_t width,
                                 util::Xoshiro256& rng) const {
    detail::check_parents(a, b, width);
    std::uint64_t c1 = 1 + rng.next_below(width - 1);
    std::uint64_t c2 = 1 + rng.next_below(width - 1);
    if (c1 > c2) std::swap(c1, c2);
    return detail::exchange(a, b,
                            detail::low_bits(c2) & ~detail::low_bits(c1));
  }
};

/// Each bit swaps between the children with probability 1/2.
class UniformCrossover {
 public:
  [[nodiscard]] GenomePair apply(std::uint64_t a, std::uint64_t b,
                                 std::size_t width,
                                 util::Xoshiro256& rng) const {
    detail::check_parents(a, b, width);
    std::uint64_t swap = 0;
    for (std::size_t i = 0; i < width; ++i) {
      swap |= (rng.next_u64() & 1) << i;
    }
    return detail::exchange(a, b, swap);
  }
};

/// The crossover operators GaEngine can run.
using Crossover =
    std::variant<SinglePointCrossover, TwoPointCrossover, UniformCrossover>;

}  // namespace leo::ga
