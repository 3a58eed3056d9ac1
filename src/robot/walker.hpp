// walker.hpp — quasi-static walking simulation of Leonardo.
//
// Executes a gait genome's six-phase cycle (genome/phases.hpp) on the
// physical model: planted feet stick to the ground, so when the stance
// legs sweep aft the body is propelled forward; legs that disagree drag
// (slip); poses whose support polygon loses the centre of mass are falls.
//
// This is the measuring instrument for the paper's qualitative claim that
// "the walking behavior found with the maximum fitness ... is nonetheless
// good" (§3.3): distance, stability margin, slip and falls per gait.
//
// The model is quasi-static on purpose — Leonardo needs ~5 s per genome
// trial (§3.2), far below any dynamic regime, and the paper's fitness
// never measures dynamics.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "genome/gait_genome.hpp"
#include "genome/phases.hpp"
#include "robot/kinematics.hpp"
#include "robot/sensors.hpp"
#include "robot/stability.hpp"
#include "robot/terrain.hpp"

namespace leo::robot {

struct WalkMetrics {
  double distance_forward_m = 0.0;  ///< net displacement along start heading
  double path_length_m = 0.0;       ///< total body translation
  double net_heading_rad = 0.0;     ///< heading change over the run
  /// Unrecoverable losses of balance (support lost entirely, or the CoM
  /// beyond fall_margin_m outside the polygon). A fall phase gains no
  /// ground. The paper's R1 wording: the robot "will stumble and fall".
  unsigned falls = 0;
  /// Recoverable tips: CoM slightly outside the polygon; the raised feet
  /// catch the robot (15 mm clearance) and the gait continues.
  unsigned stumbles = 0;
  double min_margin_m = 0.0;        ///< worst margin over non-fall phases
  double mean_margin_m = 0.0;
  double slip_m = 0.0;              ///< accumulated stance-foot drag
  unsigned phases_executed = 0;
  unsigned obstacle_hits = 0;       ///< phases in which a sensor tripped

  /// Aggregate quality in [0, 1]: forward progress normalized by the
  /// ideal tripod distance, zeroed by falls. Used to rank gaits in E4.
  [[nodiscard]] double quality(double ideal_distance_m) const noexcept;
};

/// Per-phase observer for visualization (gait_playback example).
struct PhaseSnapshot {
  std::size_t cycle = 0;
  std::size_t phase = 0;
  BodyPose body;
  std::array<genome::LegPose, kNumLegs> legs{};
  SensorFrame sensors{};
  double margin = 0.0;
  bool fell = false;
  bool stumbled = false;
};
using PhaseObserver = std::function<void(const PhaseSnapshot&)>;

class Walker {
 public:
  Walker(const RobotConfig& config, Terrain terrain);

  /// Commands the body articulation joint (radians, clamped to the
  /// configured limit). Nonzero values steer the robot.
  void set_articulation(double rad) noexcept;
  [[nodiscard]] double articulation() const noexcept { return articulation_; }

  /// Runs `cycles` full gait cycles of `genome` from the neutral posture
  /// (all feet planted, aft). Resets pose state first.
  WalkMetrics walk(const genome::GaitGenome& genome, unsigned cycles,
                   const PhaseObserver& observer = {});

  /// Continues walking from the current pose without resetting — for
  /// closed-loop control (steering between cycles, switching gaits).
  /// Metrics cover only the cycles executed by this call.
  WalkMetrics continue_walk(const genome::GaitGenome& genome, unsigned cycles,
                            const PhaseObserver& observer = {});

  /// Returns the robot to the neutral posture at the world origin.
  void reset();

  /// Outcome of one pose step: a genome phase (walk) or an
  /// externally-commanded pose (apply_pose).
  struct PoseStepResult {
    double forward_m = 0.0;
    double slip_m = 0.0;
    double margin = 0.0;
    bool fell = false;
    bool stumbled = false;
    bool blocked = false;
  };

  /// Drives the legs to an explicit target pose — the entry point for
  /// hardware-in-the-loop co-simulation, where the targets come from the
  /// RTL walking controller through the PWM/servo signal path rather
  /// than from a genome. Horizontal motion is resolved first (planted
  /// legs propel, using the *current* heights), then heights update;
  /// the same stability classification as walk() applies.
  PoseStepResult apply_pose(const std::array<genome::LegPose, kNumLegs>& targets);

  /// Current leg poses (for observers).
  [[nodiscard]] const std::array<genome::LegPose, kNumLegs>& legs() const noexcept {
    return legs_;
  }

  /// Ideal forward distance for `cycles` cycles of a perfect alternating
  /// gait (two full-stride propulsions per cycle; the first sweep of the
  /// first cycle is a transient and gains nothing).
  [[nodiscard]] double ideal_distance(unsigned cycles) const noexcept;

  [[nodiscard]] const BodyPose& body() const noexcept { return body_; }
  [[nodiscard]] const Terrain& terrain() const noexcept { return terrain_; }
  [[nodiscard]] const RobotConfig& config() const noexcept { return config_; }

 private:
  PoseStepResult execute_phase(const genome::GaitGenome& genome,
                               std::size_t phase, SensorFrame& sensors);
  PoseStepResult move_legs(
      const std::array<genome::LegPose, kNumLegs>& targets,
      SensorFrame& sensors);
  [[nodiscard]] std::vector<Vec2> stance_feet_world() const;
  [[nodiscard]] bool body_blocked_by_obstacle(double forward_m) const;

  RobotConfig config_;
  Terrain terrain_;
  LegKinematics kin_;
  BodyPose body_;
  std::array<genome::LegPose, kNumLegs> legs_{};
  double articulation_ = 0.0;
};

}  // namespace leo::robot
