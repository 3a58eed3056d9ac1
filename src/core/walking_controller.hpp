// walking_controller.hpp — the evolvable walking controller (paper Fig. 4).
//
// "The main module is the reconfigurable state machine which is
//  configured by the individual and generates the sequence of movements.
//  The second module generates the signals for the servo-motor of each
//  leg. [...] There are two servo-controls for each leg which generate
//  PWM signals for the servo-motors from the position given by the
//  parameterizable state machine."
//
// The state machine walks the six micro-phases of the two-step cycle; in
// each phase it decodes the relevant genome field of each leg into a servo
// position target (binary endpoints: up/down, fore/aft). Reconfiguration
// is literal: the 36-bit `genome` bus rewires the machine's outputs — no
// other state changes when a new individual is loaded.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "genome/gait_genome.hpp"
#include "rtl/module.hpp"
#include "servo/pwm.hpp"

namespace leo::core {

struct WalkingControllerParams {
  /// Clock cycles per micro-phase. The physical robot needs ~5 s per
  /// two-step trial (§3.2) => ~833 ms/phase at 1 MHz; simulations use a
  /// shorter phase for tractable runs. Must be >= 1.
  std::uint32_t cycles_per_phase = 833'333;
  servo::PwmParams pwm{};
};

class WalkingController final : public rtl::Module {
 public:
  WalkingController(rtl::Module* parent, std::string name,
                    WalkingControllerParams params = {});

  // --- inputs ---
  /// The individual configuring the state machine (from the GAP's best-
  /// individual bus).
  rtl::Wire<std::uint64_t> genome;
  /// Freeze the sequencer (legs hold position) when low.
  rtl::Wire<bool> run;
  /// Leg contact sensors (bit i = leg i), wired from the robot; the
  /// evolved walk does not consume them (neither does the paper's), but
  /// they are part of the board interface and exported for extensions.
  rtl::Wire<std::uint8_t> ground_sensors;
  rtl::Wire<std::uint8_t> obstacle_sensors;

  // --- outputs ---
  /// Current micro-phase (0..5) for observers and testbenches.
  rtl::Wire<std::uint8_t> phase;
  /// The 12 PWM pins, exposed via the child generators (elevation then
  /// propulsion per leg): pwm(leg, 0) = elevation, pwm(leg, 1) = propulsion.
  [[nodiscard]] const rtl::Wire<bool>& pwm_pin(std::size_t leg,
                                               std::size_t channel) const;

  void evaluate() override;
  void clock_edge() override;

  /// The decode path is genome x phase x held positions; `run` and the
  /// sensors are read only in clock_edge() (or not at all).
  [[nodiscard]] rtl::Nets inputs() const override {
    return {&genome, &phase_, &elevation_state_, &propulsion_state_};
  }

  /// The phase observer wire plus the 12 servo position commands.
  [[nodiscard]] rtl::Nets drives() const override;

  /// Servo target for a leg in the *current* phase, decoded from the
  /// genome bus (exposed so the robot-coupling layer can bypass the PWM
  /// path when running lock-step with the quasi-static walker).
  [[nodiscard]] bool elevation_target(std::size_t leg) const;
  [[nodiscard]] bool propulsion_target(std::size_t leg) const;

  [[nodiscard]] const WalkingControllerParams& params() const noexcept {
    return params_;
  }

  /// Phase sequencer (20-bit timer + 3-bit phase) and the 12-way genome
  /// field decoder (~2 LUT4 per leg per channel).
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

 private:
  /// Held positions carry the previous phase's targets through phases
  /// that do not move a given servo (vertical phases hold propulsion and
  /// vice versa).
  [[nodiscard]] bool decode_elevation(std::size_t leg) const;
  [[nodiscard]] bool decode_propulsion(std::size_t leg) const;

  WalkingControllerParams params_;
  rtl::Reg<std::uint32_t> timer_;
  rtl::Reg<std::uint8_t> phase_;
  /// Latched positions (bit per leg) so "hold" is well-defined.
  rtl::Reg<std::uint8_t> elevation_state_;
  rtl::Reg<std::uint8_t> propulsion_state_;
  std::array<std::unique_ptr<servo::PwmGenerator>, 12> pwm_;
};

}  // namespace leo::core
