// gait_genome.hpp — the paper's 36-bit walk encoding (§3.1).
//
// "A genome encodes two steps of the walk. In each step there are six
//  subparts, one for each leg. [...] inside the six parts there are three
//  bits which encode the movement of the leg during the step. The first
//  bit codes whether the leg first goes up or down. The second bit codes
//  whether the leg goes forward or backward. The last bit codes whether
//  the leg goes up or down after the horizontal move."
//
// Bit layout (LSB first): bit index = step*18 + leg*3 + field, with
// field 0 = first vertical move (1 = up), field 1 = horizontal move
// (1 = forward), field 2 = final vertical move (1 = up).
//
// Leg numbering follows the robot's top view (paper Fig. 1a):
//   0 = left front, 1 = left middle, 2 = left rear,
//   3 = right front, 4 = right middle, 5 = right rear.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace leo::genome {

inline constexpr std::size_t kNumLegs = 6;
inline constexpr std::size_t kNumSteps = 2;
inline constexpr std::size_t kBitsPerLegStep = 3;
inline constexpr std::size_t kGenomeBits =
    kNumSteps * kNumLegs * kBitsPerLegStep;  // = 36, as in the paper
inline constexpr std::uint64_t kGenomeMask =
    (std::uint64_t{1} << kGenomeBits) - 1;
/// Size of the search space: 2^36 ("68 billion possibilities", §3.1).
inline constexpr std::uint64_t kSearchSpace = std::uint64_t{1} << kGenomeBits;

/// Legs 0..2 are the left side, 3..5 the right side.
[[nodiscard]] constexpr bool is_left_leg(std::size_t leg) noexcept {
  return leg < kNumLegs / 2;
}

/// One leg's plan for one step: three absolute position targets.
struct LegGene {
  bool lift_first = false;   ///< vertical position during the horizontal move
  bool forward = false;      ///< horizontal target (true = forward)
  bool lift_last = false;    ///< vertical position at the end of the step

  [[nodiscard]] constexpr std::uint8_t pack() const noexcept {
    return static_cast<std::uint8_t>((lift_first ? 1 : 0) |
                                     (forward ? 2 : 0) | (lift_last ? 4 : 0));
  }
  [[nodiscard]] static constexpr LegGene unpack(std::uint8_t bits) noexcept {
    return LegGene{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
  }

  constexpr bool operator==(const LegGene&) const noexcept = default;
};

/// One step: a gene for each of the six legs.
struct StepPlan {
  std::array<LegGene, kNumLegs> legs{};

  constexpr bool operator==(const StepPlan&) const noexcept = default;
};

/// The full 36-bit genome: two steps.
class GaitGenome {
 public:
  GaitGenome() = default;

  /// Decodes the low 36 bits; higher bits must be zero.
  static GaitGenome from_bits(std::uint64_t bits);

  [[nodiscard]] std::uint64_t to_bits() const noexcept;
  /// "0x" and nine lowercase hex digits, e.g. "0x6186030c3".
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] const StepPlan& step(std::size_t s) const {
    return steps_.at(s);
  }
  [[nodiscard]] StepPlan& step(std::size_t s) { return steps_.at(s); }

  [[nodiscard]] const LegGene& gene(std::size_t s, std::size_t leg) const {
    return steps_.at(s).legs.at(leg);
  }
  [[nodiscard]] LegGene& gene(std::size_t s, std::size_t leg) {
    return steps_.at(s).legs.at(leg);
  }

  /// Human-readable per-leg summary, e.g. "L0: step0 up/fwd/down ...".
  [[nodiscard]] std::string describe() const;

  /// ASCII gait diagram: a 6-row (legs) x 6-column (micro-phases) chart
  /// marking swing ('^') vs stance ('_') and the horizontal direction.
  [[nodiscard]] std::string diagram() const;

  bool operator==(const GaitGenome&) const noexcept = default;

 private:
  std::array<StepPlan, kNumSteps> steps_{};
};

}  // namespace leo::genome
