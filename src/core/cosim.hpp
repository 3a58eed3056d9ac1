// cosim.hpp — hardware-in-the-loop co-simulation.
//
// The complete signal chain of paper Figs. 3-4, closed end to end:
//
//   DiscipulusTop (RTL) --12 PWM pins--> ServoModel x12 (pulse-width
//   demodulation + slew) --quantized angles--> Walker (quasi-static
//   physics) --contact sensors--> DiscipulusTop sensor inputs
//
// Each simulated clock cycle is 1 us at the paper's 1 MHz: the servos
// integrate the real PWM waveforms the controller emits, so controller
// timing bugs (wrong pulse widths, phases too short for the servo slew)
// show up as a robot that fails to walk — exactly what bench-testing the
// physical Leonardo would reveal.
#pragma once

#include <array>
#include <cstdint>

#include "core/discipulus.hpp"
#include "robot/walker.hpp"
#include "rtl/simulator.hpp"
#include "servo/servo_model.hpp"

namespace leo::core {

struct CosimParams {
  DiscipulusParams discipulus{};
  servo::ServoParams servo{};
};

struct CosimWalkMetrics {
  double distance_forward_m = 0.0;
  unsigned falls = 0;
  unsigned stumbles = 0;
  unsigned pose_steps = 0;      ///< quantized pose changes applied
  std::uint64_t cycles = 0;     ///< RTL cycles consumed
};

class HardwareInTheLoop {
 public:
  HardwareInTheLoop(const CosimParams& params, robot::Terrain terrain,
                    std::uint64_t rng_seed);

  /// Runs the GAP to convergence (the robot stands still); returns false
  /// if the cycle budget is exhausted first.
  bool evolve(std::uint64_t max_cycles = 50'000'000);

  /// Loads a gait through the external-genome port instead of evolving.
  void load_genome(std::uint64_t genome_bits);

  /// Runs `cycles` clock cycles of the full loop: RTL -> PWM -> servos;
  /// whenever the quantized pose changes, the walker executes the move
  /// and the resulting contact sensors are driven back into the FPGA.
  CosimWalkMetrics run(std::uint64_t cycles);

  [[nodiscard]] DiscipulusTop& fpga() noexcept { return top_; }
  [[nodiscard]] robot::Walker& walker() noexcept { return walker_; }
  [[nodiscard]] const rtl::Simulator& simulator() const noexcept {
    return sim_;
  }

 private:
  [[nodiscard]] std::array<genome::LegPose, robot::kNumLegs>
  quantized_pose() const;
  void drive_sensors(const robot::SensorFrame& sensors);

  DiscipulusTop top_;
  rtl::Simulator sim_;
  std::array<servo::ServoModel, 12> servos_;
  robot::Walker walker_;
};

}  // namespace leo::core
