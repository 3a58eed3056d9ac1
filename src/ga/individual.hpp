// individual.hpp — GA population types.
//
// Genomes are packed into one 64-bit word, like the GAP's genome RAM
// words: the paper's genome is 36 bits, and GaParams::genome_bits sets the
// width (2..64, validated by GaEngine). Bits at and above the width are
// always zero. Fitness is any function of the packed word returning an
// unsigned score, higher = better; the gait problem plugs in
// fitness::score().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace leo::ga {

/// Widest genome the packed representation holds.
inline constexpr std::size_t kMaxGenomeBits = 64;

/// Mask of the low `width` bits (width in 1..64).
[[nodiscard]] constexpr std::uint64_t genome_mask(std::size_t width) noexcept {
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

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
