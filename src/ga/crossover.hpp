// crossover.hpp — recombination operators.
//
// The GAP implements single-point crossover (§3.2): cut both genomes at a
// random position and swap the tails. Two-point and uniform variants are
// software baselines for the operator-ablation bench. All three are mask
// arithmetic on packed genomes: a swap mask m selects the loci that trade
// places, and each child is its parent XOR ((a ^ b) & m).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "ga/individual.hpp"
#include "util/rng.hpp"

namespace leo::ga {

using GenomePair = std::pair<std::uint64_t, std::uint64_t>;

class CrossoverOp {
 public:
  virtual ~CrossoverOp() = default;
  /// Produces two children from two `width`-bit parents. Throws
  /// std::invalid_argument unless width is in [2, 64] and both parents
  /// fit in it.
  [[nodiscard]] virtual GenomePair apply(std::uint64_t a, std::uint64_t b,
                                         std::size_t width,
                                         util::RandomSource& rng) const = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Cut point c drawn uniformly from [1, width-1]; children are
/// a[0..c)+b[c..) and b[0..c)+a[c..). (c = 0 or width would clone the
/// parents, which the crossover *threshold* already accounts for.)
class SinglePointCrossover final : public CrossoverOp {
 public:
  [[nodiscard]] GenomePair apply(std::uint64_t a, std::uint64_t b,
                                 std::size_t width,
                                 util::RandomSource& rng) const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "single-point";
  }
};

/// Swaps the segment between two distinct cut points.
class TwoPointCrossover final : public CrossoverOp {
 public:
  [[nodiscard]] GenomePair apply(std::uint64_t a, std::uint64_t b,
                                 std::size_t width,
                                 util::RandomSource& rng) const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "two-point";
  }
};

/// Each bit swaps between the children with probability 1/2.
class UniformCrossover final : public CrossoverOp {
 public:
  [[nodiscard]] GenomePair apply(std::uint64_t a, std::uint64_t b,
                                 std::size_t width,
                                 util::RandomSource& rng) const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "uniform";
  }
};

}  // namespace leo::ga
