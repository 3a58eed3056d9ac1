#include "ga/baselines.hpp"

#include <stdexcept>

#include "ga/individual.hpp"

namespace leo::ga {

ScanResult exhaustive_scan(std::uint64_t begin, std::uint64_t end,
                           const FitnessU64Fn& fitness,
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

ScanResult random_search(std::size_t genome_bits, std::uint64_t max_draws,
                         const FitnessU64Fn& fitness, unsigned target_fitness,
                         util::Xoshiro256& rng) {
  if (genome_bits == 0 || genome_bits > kMaxGenomeBits) {
    throw std::invalid_argument("random_search: genome_bits in [1, 64]");
  }
  const std::uint64_t mask = genome_mask(genome_bits);
  ScanResult r;
  for (std::uint64_t i = 0; i < max_draws; ++i) {
    const std::uint64_t g = rng.next_u64() & mask;
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
