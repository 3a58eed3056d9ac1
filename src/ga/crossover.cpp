#include "ga/crossover.hpp"

#include <stdexcept>

namespace leo::ga {

namespace {
void check_parents(std::uint64_t a, std::uint64_t b, std::size_t width) {
  if (width < 2 || width > kMaxGenomeBits || ((a | b) & ~genome_mask(width))) {
    throw std::invalid_argument(
        "crossover: parents must fit a shared width in [2, 64]");
  }
}

/// Low `n` bits set, n in [0, 63].
std::uint64_t low_bits(std::uint64_t n) { return (std::uint64_t{1} << n) - 1; }

/// Children of swapping the loci selected by `swap`.
GenomePair exchange(std::uint64_t a, std::uint64_t b, std::uint64_t swap) {
  const std::uint64_t diff = (a ^ b) & swap;
  return {a ^ diff, b ^ diff};
}
}  // namespace

GenomePair SinglePointCrossover::apply(std::uint64_t a, std::uint64_t b,
                                       std::size_t width,
                                       util::RandomSource& rng) const {
  check_parents(a, b, width);
  const std::uint64_t c = 1 + rng.next_below(width - 1);
  return exchange(a, b, ~low_bits(c));
}

GenomePair TwoPointCrossover::apply(std::uint64_t a, std::uint64_t b,
                                    std::size_t width,
                                    util::RandomSource& rng) const {
  check_parents(a, b, width);
  std::uint64_t c1 = 1 + rng.next_below(width - 1);
  std::uint64_t c2 = 1 + rng.next_below(width - 1);
  if (c1 > c2) std::swap(c1, c2);
  return exchange(a, b, low_bits(c2) & ~low_bits(c1));
}

GenomePair UniformCrossover::apply(std::uint64_t a, std::uint64_t b,
                                   std::size_t width,
                                   util::RandomSource& rng) const {
  check_parents(a, b, width);
  std::uint64_t swap = 0;
  for (std::size_t i = 0; i < width; ++i) {
    swap |= (rng.next_u64() & 1) << i;
  }
  return exchange(a, b, swap);
}

}  // namespace leo::ga
