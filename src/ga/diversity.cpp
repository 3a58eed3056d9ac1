#include "ga/diversity.hpp"

#include <bit>

namespace leo::ga {

double mean_pairwise_hamming(const Population& pop) {
  if (pop.size() < 2) return 0.0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    for (std::size_t j = i + 1; j < pop.size(); ++j) {
      total += static_cast<std::uint64_t>(
          std::popcount(pop[i].genome.bits ^ pop[j].genome.bits));
    }
  }
  const std::uint64_t pairs = pop.size() * (pop.size() - 1) / 2;
  return static_cast<double>(total) / static_cast<double>(pairs);
}

}  // namespace leo::ga
