// individual.hpp — GA population types.
//
// Genomes are packed into one 64-bit word, like the GAP's genome RAM
// words: the low genome::kGenomeBits (36) bits are the paper's gait
// genome, and the bits above them are always zero. Fitness is the paper's
// gait score, fitness::score() under a fitness::FitnessSpec (higher =
// better); ga::GaEngine calls it directly.
#pragma once

#include <cstdint>
#include <vector>

namespace leo::ga {

/// A packed genome: bit i is gene bit i.
struct Genome {
  std::uint64_t bits = 0;

  [[nodiscard]] constexpr std::uint64_t to_u64() const noexcept { return bits; }
  friend constexpr bool operator==(Genome, Genome) = default;
};

struct Individual {
  Genome genome;
  unsigned fitness = 0;
};

using Population = std::vector<Individual>;

}  // namespace leo::ga
