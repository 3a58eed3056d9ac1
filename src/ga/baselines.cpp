#include "ga/baselines.hpp"

#include <stdexcept>

#include "genome/gait_genome.hpp"

namespace leo::ga {

ScanResult exhaustive_scan(std::uint64_t begin, std::uint64_t end,
                           const FitnessFn& fitness,
                           std::optional<unsigned> target_fitness) {
  if (begin > end) throw std::invalid_argument("exhaustive_scan: begin > end");
  ScanResult r;
  for (std::uint64_t g = begin; g < end; ++g) {
    const unsigned f = fitness(g);
    ++r.evaluated;
    if (f > r.best_fitness || r.evaluated == 1) {
      r.best_fitness = f;
      r.best_genome = g;
    }
    if (target_fitness && f >= *target_fitness) {
      r.first_max_at = g;
      r.reached_target = true;
      break;
    }
  }
  return r;
}

ScanResult random_search(std::uint64_t max_draws, const FitnessFn& fitness,
                         unsigned target_fitness, util::Xoshiro256& rng) {
  ScanResult r;
  for (std::uint64_t i = 0; i < max_draws; ++i) {
    const std::uint64_t g = rng.next_u64() & genome::kGenomeMask;
    const unsigned f = fitness(g);
    ++r.evaluated;
    if (f > r.best_fitness || r.evaluated == 1) {
      r.best_fitness = f;
      r.best_genome = g;
    }
    if (f >= target_fitness) {
      r.first_max_at = i;
      r.reached_target = true;
      break;
    }
  }
  return r;
}

}  // namespace leo::ga
