// mutation.hpp — mutation operators.
//
// The GAP's mutation is "single-bit mutation: randomly flips a bit in an
// individual's genome", applied 15 times per generation across the whole
// 1152-bit population (§3.3). ExactCountMutation reproduces that exactly;
// PerBitMutation is the textbook alternative for ablations.
#pragma once

#include <cstddef>

#include "ga/individual.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace leo::ga {

class MutationOp {
 public:
  virtual ~MutationOp() = default;
  /// Mutates the `width`-bit genomes of the population in place (fitness
  /// values become stale).
  virtual void apply(Population& pop, std::size_t width,
                     util::RandomSource& rng) const = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Flips exactly `count` uniformly chosen (individual, bit) positions per
/// generation. Positions are drawn independently, so the same bit can be
/// hit twice (flipping back) — matching the hardware, which draws a fresh
/// random address per mutation with no dedup.
class ExactCountMutation final : public MutationOp {
 public:
  explicit ExactCountMutation(unsigned count) : count_(count) {}
  void apply(Population& pop, std::size_t width,
             util::RandomSource& rng) const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "exact-count";
  }
  [[nodiscard]] unsigned count() const noexcept { return count_; }

 private:
  unsigned count_;
};

/// Each bit of each genome flips independently with probability p8/256.
class PerBitMutation final : public MutationOp {
 public:
  explicit PerBitMutation(util::Prob8 rate) : rate_(rate) {}
  void apply(Population& pop, std::size_t width,
             util::RandomSource& rng) const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "per-bit";
  }

 private:
  util::Prob8 rate_;
};

}  // namespace leo::ga
