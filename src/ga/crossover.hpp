// crossover.hpp — the recombination operator.
//
// The GAP implements single-point crossover (§3.2): cut both genomes at a
// random position and swap the tails. On packed genomes that is mask
// arithmetic: the swap mask m selects the tail loci, and each child is its
// parent XOR ((a ^ b) & m).
//
// SinglePointCrossover::apply(a, b, rng) produces two children from two
// 36-bit parents, drawing from util::Xoshiro256 inline so GaEngine's
// generation loop inlines it. It throws std::invalid_argument unless both
// parents fit the genome (no bit set above genome::kGenomeMask).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "ga/individual.hpp"
#include "genome/gait_genome.hpp"
#include "util/rng.hpp"

namespace leo::ga {

using GenomePair = std::pair<std::uint64_t, std::uint64_t>;

/// Cut point c drawn uniformly from [1, 35]; children are a[0..c)+b[c..)
/// and b[0..c)+a[c..). (c = 0 or 36 would clone the parents, which the
/// crossover *threshold* already accounts for.)
class SinglePointCrossover {
 public:
  [[nodiscard]] GenomePair apply(std::uint64_t a, std::uint64_t b,
                                 util::Xoshiro256& rng) const {
    if ((a | b) & ~genome::kGenomeMask) {
      throw std::invalid_argument("crossover: parents must fit the genome");
    }
    const std::uint64_t c = 1 + rng.next_below(genome::kGenomeBits - 1);
    const std::uint64_t diff = (a ^ b) & ~((std::uint64_t{1} << c) - 1);
    return {a ^ diff, b ^ diff};
  }
};

}  // namespace leo::ga
