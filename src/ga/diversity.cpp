#include "ga/diversity.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

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

double mean_bit_entropy(const Population& pop, std::size_t width) {
  if (width > kMaxGenomeBits) {
    throw std::invalid_argument("mean_bit_entropy: width must be <= 64");
  }
  if (pop.empty() || width == 0) return 0.0;
  double entropy_sum = 0.0;
  for (std::size_t bit = 0; bit < width; ++bit) {
    std::size_t ones = 0;
    for (const auto& ind : pop) ones += (ind.genome.bits >> bit) & 1;
    const double p = static_cast<double>(ones) /
                     static_cast<double>(pop.size());
    if (p > 0.0 && p < 1.0) {
      entropy_sum += -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
    }
  }
  return entropy_sum / static_cast<double>(width);
}

}  // namespace leo::ga
