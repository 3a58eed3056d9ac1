// baselines.hpp — the non-evolutionary comparators.
//
// The paper's own baseline is exhaustive search: "if we had to test all
// the 68 billion possibilities for the genome, we would need about 19
// hours at 1 MHz" (§3.3) — i.e. one genome per clock cycle. We implement
// that scan (resumable in chunks, since 2^36 software evaluations is a
// long benchmark) plus uniform random search.
#pragma once

#include <cstdint>
#include <optional>

#include "ga/individual.hpp"
#include "util/rng.hpp"

namespace leo::ga {

struct ScanResult {
  std::uint64_t evaluated = 0;       ///< genomes scored
  std::uint64_t best_genome = 0;
  unsigned best_fitness = 0;
  std::uint64_t first_max_at = 0;    ///< index of the first target hit
  bool reached_target = false;
};

/// Scans genomes [begin, end) in ascending order. Stops early when
/// `target_fitness` is reached (if set). Each evaluation models one clock
/// cycle of the hardware's exhaustive pipeline.
[[nodiscard]] ScanResult exhaustive_scan(std::uint64_t begin, std::uint64_t end,
                                         const FitnessFn& fitness,
                                         std::optional<unsigned> target_fitness);

/// Draws uniform random 36-bit genomes until the target is hit or
/// `max_draws` exhausted.
[[nodiscard]] ScanResult random_search(std::uint64_t max_draws,
                                       const FitnessFn& fitness,
                                       unsigned target_fitness,
                                       util::Xoshiro256& rng);

}  // namespace leo::ga
