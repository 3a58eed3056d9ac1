// mutation.hpp — mutation operators.
//
// The GAP's mutation is "single-bit mutation: randomly flips a bit in an
// individual's genome", applied 15 times per generation across the whole
// 1152-bit population (§3.3). ExactCountMutation reproduces that exactly;
// PerBitMutation is the textbook alternative for ablations.
//
// The operators form a closed set (the Mutation variant): each is a
// concrete class whose apply(pop, width, rng) mutates the `width`-bit
// genomes of the population in place (fitness values become stale),
// drawing from util::Xoshiro256 so GaEngine's generation loop
// inlines it. apply() throws std::invalid_argument unless width is in
// [1, 64].
#pragma once

#include <cstddef>
#include <stdexcept>
#include <variant>

#include "ga/individual.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace leo::ga {

namespace detail {

inline void check_width(std::size_t width) {
  if (width == 0 || width > kMaxGenomeBits) {
    throw std::invalid_argument("mutation: width must be in [1, 64]");
  }
}

}  // namespace detail

/// Flips exactly `count` uniformly chosen (individual, bit) positions per
/// generation. Positions are drawn independently, so the same bit can be
/// hit twice (flipping back) — matching the hardware, which draws a fresh
/// random address per mutation with no dedup.
class ExactCountMutation {
 public:
  explicit ExactCountMutation(unsigned count) : count_(count) {}
  void apply(Population& pop, std::size_t width, util::Xoshiro256& rng) const {
    detail::check_width(width);
    if (pop.empty()) return;
    const std::size_t total_bits = pop.size() * width;
    for (unsigned i = 0; i < count_; ++i) {
      const std::uint64_t pos = rng.next_below(total_bits);
      pop[pos / width].genome.bits ^= std::uint64_t{1} << (pos % width);
    }
  }
  [[nodiscard]] unsigned count() const noexcept { return count_; }

 private:
  unsigned count_;
};

/// Each bit of each genome flips independently with probability p8/256.
class PerBitMutation {
 public:
  explicit PerBitMutation(util::Prob8 rate) : rate_(rate) {}
  void apply(Population& pop, std::size_t width, util::Xoshiro256& rng) const {
    detail::check_width(width);
    for (auto& ind : pop) {
      for (std::size_t bit = 0; bit < width; ++bit) {
        if (rng.next_bool_p8(rate_.raw())) {
          ind.genome.bits ^= std::uint64_t{1} << bit;
        }
      }
    }
  }

 private:
  util::Prob8 rate_;
};

/// The mutation operators GaEngine can run.
using Mutation = std::variant<ExactCountMutation, PerBitMutation>;

}  // namespace leo::ga
