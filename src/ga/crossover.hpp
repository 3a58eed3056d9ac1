// crossover.hpp — the recombination operator.
//
// The GAP implements single-point crossover (§3.2): cut both genomes at a
// random position and swap the tails. On packed genomes that is mask
// arithmetic: the swap mask m selects the tail loci, and each child is its
// parent XOR ((a ^ b) & m).
//
// SinglePointCrossover::apply(a, b, width, rng) produces two children from
// two `width`-bit parents, drawing from util::Xoshiro256 inline so
// GaEngine's generation loop inlines it. It throws std::invalid_argument
// unless width is in [2, 64] and both parents fit in it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

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
    const std::uint64_t diff = (a ^ b) & ~((std::uint64_t{1} << c) - 1);
    return {a ^ diff, b ^ diff};
  }
};

}  // namespace leo::ga
