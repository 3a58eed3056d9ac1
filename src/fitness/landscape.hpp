// landscape.hpp — analysis of the 2^36 fitness landscape (DESIGN.md E6).
//
// The paper reports the search-space size (68 billion) and that the GA
// finds a maximum-fitness genome in ~2000 generations; understanding *why*
// requires knowing how rare maximum fitness is. Exhaustively scanning
// 2^36 genomes is feasible only as a long benchmark; this module instead
// exploits the rules' structure for exact answers:
//
//  - R2 = R3 = 0 constrains each leg independently to 8 of its 64
//    two-step patterns, giving an 8^6 = 262,144-element candidate set;
//  - R1 is then checked exactly over those candidates.
//
// This yields the exact count of maximum-fitness genomes, plus sampled
// statistics (histogram, mean) over the full space.
#pragma once

#include <cstdint>

#include "fitness/rules.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace leo::fitness {

/// Exact number of genomes attaining max_score under the default spec.
/// Computed by structured enumeration (no 2^36 scan); the method is
/// validated against a sampled estimate in tests.
[[nodiscard]] std::uint64_t count_max_fitness_exact();

/// Probability that a uniform random genome has maximum fitness.
[[nodiscard]] double max_fitness_density();

/// Expected number of uniform random draws to hit maximum fitness
/// (the random-search baseline the GA must beat).
[[nodiscard]] double expected_random_draws_to_max();

/// Sampled landscape statistics under `spec`.
struct LandscapeSample {
  util::RunningStats scores;
  util::Histogram histogram;
  std::uint64_t max_hits = 0;

  explicit LandscapeSample(const FitnessSpec& spec)
      : histogram(0.0, static_cast<double>(spec.max_score()) + 1.0,
                  spec.max_score() + 1) {}
};

/// Scores `n` uniform random genomes.
[[nodiscard]] LandscapeSample sample_landscape(std::uint64_t n,
                                               util::Xoshiro256& rng,
                                               const FitnessSpec& spec = kDefaultSpec);

}  // namespace leo::fitness
