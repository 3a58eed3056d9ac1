// pwm.hpp — the servo-control block of the walking controller (paper
// Fig. 4: "There are two servo-controls for each leg which generate PWM
// signals for the servo-motors from the position given by the
// parameterizable state machine").
//
// Standard RC-servo signalling at the paper's 1 MHz clock: a 20 ms frame
// (20,000 cycles) with an active-high pulse of 1000 + 4*position cycles,
// so position 0 -> 1.000 ms (full aft/down) and 255 -> 2.020 ms (full
// fore/up). The x4 scaling is a wiring shift, not a multiplier — exactly
// the kind of arithmetic that fits CLBs.
#pragma once

#include <cstdint>

#include "rtl/module.hpp"

namespace leo::servo {

struct PwmParams {
  std::uint32_t frame_cycles = 20'000;  ///< 20 ms at 1 MHz
  std::uint32_t min_pulse_cycles = 1'000;  ///< 1 ms
  /// Pulse widens by `position << position_shift` cycles (255 -> +1020).
  unsigned position_shift = 2;
};

class PwmGenerator final : public rtl::Module {
 public:
  PwmGenerator(rtl::Module* parent, std::string name, PwmParams params = {});

  /// Commanded position, 0..255 (driven by the walking controller).
  rtl::Wire<std::uint8_t> position;
  /// The servo signal pin.
  rtl::Wire<bool> pwm;

  void evaluate() override;
  void clock_edge() override;

  /// `position` is sampled only at frame boundaries in clock_edge().
  [[nodiscard]] rtl::Nets inputs() const override {
    return {&counter_, &latched_pulse_};
  }

  [[nodiscard]] rtl::Nets drives() const override { return {&pwm}; }

  [[nodiscard]] const PwmParams& params() const noexcept { return params_; }

  /// Pulse width (cycles) commanded by a position value.
  [[nodiscard]] std::uint32_t pulse_cycles(std::uint8_t pos) const noexcept {
    return params_.min_pulse_cycles +
           (static_cast<std::uint32_t>(pos) << params_.position_shift);
  }

  /// One 15-bit frame counter; the comparator is ~5 LUT4s per output.
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

 private:
  PwmParams params_;
  rtl::Reg<std::uint32_t> counter_;
  /// Pulse width is latched at each frame start so a mid-frame position
  /// change cannot glitch the active pulse (real servo drivers do this).
  rtl::Reg<std::uint32_t> latched_pulse_;
};

}  // namespace leo::servo
