// phases.hpp — expansion of a gait genome into the micro-phase sequence
// executed by the walking controller.
//
// Each step is three sequential micro-movements (paper §3.1): a vertical
// move, a horizontal move, a vertical move. A full gait cycle is therefore
// 2 steps x 3 = 6 phases, after which the cycle repeats. The walking
// controller's reconfigurable state machine walks these six states; the
// robot simulator integrates body motion over them; the fitness rules
// reason about the leg positions they imply.
//
// Position convention: `raised` is the leg's vertical position (true = in
// the air), `fore` the horizontal servo position (true = swung forward).
// Propulsion happens when a *planted* leg sweeps from fore to aft: the
// stance leg pushes the body forward.
#pragma once

#include <array>
#include <cstdint>

#include "genome/gait_genome.hpp"

namespace leo::genome {

inline constexpr std::size_t kPhasesPerStep = 3;
inline constexpr std::size_t kPhasesPerCycle = kNumSteps * kPhasesPerStep;  // 6

/// Which micro-movement a phase performs.
enum class PhaseKind : std::uint8_t {
  kVerticalFirst = 0,  ///< legs move to their `lift_first` height
  kHorizontal = 1,     ///< legs move to their `forward` position
  kVerticalLast = 2,   ///< legs move to their `lift_last` height
};

[[nodiscard]] constexpr PhaseKind phase_kind(std::size_t phase) noexcept {
  return static_cast<PhaseKind>(phase % kPhasesPerStep);
}
[[nodiscard]] constexpr std::size_t phase_step(std::size_t phase) noexcept {
  return phase / kPhasesPerStep;
}

/// Pose of one leg after a phase completes.
struct LegPose {
  bool raised = false;
  bool fore = false;

  constexpr bool operator==(const LegPose&) const noexcept = default;
};

/// Poses of all six legs after each of the six phases of one gait cycle.
/// `pose[p][leg]` is the pose once phase p has executed. The cycle is
/// self-consistent if executed repeatedly (phase 5's vertical targets are
/// step 1's lift_last, then phase 0 re-targets step 0's lift_first).
class PhaseTable {
 public:
  /// Expands the genome. `initial` is the pose all legs hold before the
  /// first phase (the controller's reset state: planted, aft).
  explicit PhaseTable(const GaitGenome& genome, LegPose initial = {});

  [[nodiscard]] const LegPose& pose(std::size_t phase, std::size_t leg) const {
    return poses_.at(phase).at(leg);
  }

  /// Number of legs raised on the given body side after `phase`.
  [[nodiscard]] unsigned raised_on_side(std::size_t phase, bool left) const;

  /// True if a leg is planted (stance) throughout the horizontal move of
  /// `step` — these are the legs that propel the robot.
  [[nodiscard]] bool is_stance_during_sweep(std::size_t step,
                                            std::size_t leg) const;

 private:
  std::array<std::array<LegPose, kNumLegs>, kPhasesPerCycle> poses_{};
};

}  // namespace leo::genome
