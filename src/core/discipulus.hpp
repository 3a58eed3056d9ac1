// discipulus.hpp — Discipulus Simplex: the single-FPGA evolvable system
// (paper Fig. 3).
//
//   +---------------------------- FPGA -----------------------------+
//   | Fitness Module -> Genetic Algorithm Processor --Individual--> |
//   |                    Configurable Walking Controller --Servo--> |
//   +----------------------------------------------------------------+
//
// The GAP evolves on-line; its best-individual bus configures the walking
// controller, which drives the 12 servo pins. While evolution runs the
// sequencer is frozen (the physical robot stands); when the GAP reaches
// the target fitness the robot starts walking the evolved gait. An
// external-genome override mimics loading a gait through the
// configuration port (used by examples and tests).
//
// This module is the unit whose resource tally reproduces the paper's
// "96 percent of the available CLBs" figure (DESIGN.md E3).
#pragma once

#include <cstdint>

#include "core/walking_controller.hpp"
#include "gap/gap_top.hpp"
#include "rtl/module.hpp"

namespace leo::core {

struct DiscipulusParams {
  gap::GapParams gap{};
  WalkingControllerParams controller{};
};

class DiscipulusTop final : public rtl::Module {
 public:
  DiscipulusTop(rtl::Module* parent, std::string name, DiscipulusParams params,
                std::uint64_t rng_seed);

  // --- board-level inputs ---
  rtl::Wire<std::uint8_t> ground_sensors;
  rtl::Wire<std::uint8_t> obstacle_sensors;
  /// Override: drive the controller from `external_genome` instead of the
  /// GAP's best individual.
  rtl::Wire<bool> use_external_genome;
  rtl::Wire<std::uint64_t> external_genome;

  // --- board-level outputs ---
  rtl::Wire<bool> evolution_done;

  void evaluate() override;

  [[nodiscard]] rtl::Nets inputs() const override {
    return {&gap_.done,        &gap_.best_genome_bus, &use_external_genome,
            &external_genome,  &ground_sensors,       &obstacle_sensors};
  }

  [[nodiscard]] rtl::Nets drives() const override {
    return {&evolution_done, &controller_.genome, &controller_.run,
            &controller_.ground_sensors, &controller_.obstacle_sensors};
  }

  [[nodiscard]] gap::GapTop& gap() noexcept { return gap_; }
  [[nodiscard]] const gap::GapTop& gap() const noexcept { return gap_; }
  [[nodiscard]] WalkingController& controller() noexcept {
    return controller_;
  }

  /// Top-level glue: the genome mux and the sensor fan-in.
  [[nodiscard]] rtl::ResourceTally own_resources() const override;

 private:
  gap::GapTop gap_;
  WalkingController controller_;
};

}  // namespace leo::core
