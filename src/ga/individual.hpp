// individual.hpp — GA population types.
//
// Genomes are packed into one 64-bit word, like the GAP's genome RAM
// words: the low genome::kGenomeBits (36) bits are the paper's gait
// genome, and the bits above them are always zero. Fitness is any function
// of the packed word returning an unsigned score, higher = better; the
// gait problem plugs in fitness::score().
#pragma once

#include <cstdint>
#include <functional>
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

/// Fitness evaluator over the packed genome; must be pure (the engine
/// caches scores).
using FitnessFn = std::function<unsigned(std::uint64_t)>;

}  // namespace leo::ga
