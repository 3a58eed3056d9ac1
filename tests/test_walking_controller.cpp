// Tests for the reconfigurable walking controller (paper Fig. 4) and the
// Discipulus Simplex top-level wiring (paper Fig. 3).
#include "core/walking_controller.hpp"

#include <gtest/gtest.h>

#include "core/discipulus.hpp"
#include "genome/known_gaits.hpp"
#include "genome/phases.hpp"
#include "rtl/simulator.hpp"

namespace leo::core {
namespace {

WalkingControllerParams fast_params() {
  WalkingControllerParams p;
  p.cycles_per_phase = 10;  // keep tests quick; semantics are unchanged
  return p;
}

class ControllerHarness final : public rtl::Module {
 public:
  explicit ControllerHarness(WalkingControllerParams p)
      : rtl::Module(nullptr, "tb"), ctrl(this, "ctrl", p) {}
  WalkingController ctrl;
  [[nodiscard]] rtl::Nets inputs() const override { return {}; }
  [[nodiscard]] rtl::Nets drives() const override { return {}; }
};

TEST(WalkingController, PhaseSequencerAdvancesAndWraps) {
  ControllerHarness tb(fast_params());
  rtl::Simulator sim(tb);
  tb.ctrl.run.write(true);
  tb.ctrl.genome.write(genome::tripod_gait().to_bits());
  EXPECT_EQ(tb.ctrl.phase.read(), 0u);
  for (unsigned expected = 1; expected < 13; ++expected) {
    sim.run(10);
    EXPECT_EQ(tb.ctrl.phase.read(), expected % 6) << "after phase " << expected;
  }
}

TEST(WalkingController, FrozenWhenRunLow) {
  ControllerHarness tb(fast_params());
  rtl::Simulator sim(tb);
  tb.ctrl.run.write(false);
  tb.ctrl.genome.write(genome::tripod_gait().to_bits());
  sim.run(100);
  EXPECT_EQ(tb.ctrl.phase.read(), 0u);
}

TEST(WalkingController, DecodedTargetsMatchPhaseTable) {
  const genome::GaitGenome g = genome::tripod_gait();
  const genome::PhaseTable table(g);
  ControllerHarness tb(fast_params());
  rtl::Simulator sim(tb);
  tb.ctrl.run.write(true);
  tb.ctrl.genome.write(g.to_bits());
  // Settle into each phase and compare the decoded targets with the
  // canonical expansion (the pose reached when that phase completes).
  for (std::size_t phase = 0; phase < 6; ++phase) {
    sim.run(5);  // mid-phase
    ASSERT_EQ(tb.ctrl.phase.read(), phase);
    for (std::size_t leg = 0; leg < 6; ++leg) {
      EXPECT_EQ(tb.ctrl.elevation_target(leg), table.pose(phase, leg).raised)
          << "phase " << phase << " leg " << leg;
      EXPECT_EQ(tb.ctrl.propulsion_target(leg), table.pose(phase, leg).fore)
          << "phase " << phase << " leg " << leg;
    }
    sim.run(5);  // complete the phase
  }
}

TEST(WalkingController, ReconfigurationIsImmediate) {
  // Swapping the genome bus re-wires the decoded outputs without any
  // reset — the literal meaning of an evolvable (reconfigurable) machine.
  ControllerHarness tb(fast_params());
  rtl::Simulator sim(tb);
  tb.ctrl.run.write(true);
  tb.ctrl.genome.write(genome::all_zero_gait().to_bits());
  sim.run(3);
  EXPECT_FALSE(tb.ctrl.elevation_target(0));
  tb.ctrl.genome.write(genome::pronking_gait().to_bits());
  sim.run(1);
  EXPECT_TRUE(tb.ctrl.elevation_target(0));  // phase 0 lift_first = 1
}

TEST(WalkingController, PwmReflectsDecodedPositions) {
  WalkingControllerParams p = fast_params();
  p.pwm.frame_cycles = 4000;
  ControllerHarness tb(p);
  rtl::Simulator sim(tb);
  tb.ctrl.run.write(true);
  tb.ctrl.genome.write(genome::pronking_gait().to_bits());
  // Step into phase 0 (all legs lifting) and run one full PWM frame plus
  // a latch boundary, then measure one frame of pulse width on leg 0's
  // elevation pin.
  sim.run(4000);
  std::uint32_t high = 0;
  for (int i = 0; i < 4000; ++i) {
    sim.step();
    high += tb.ctrl.pwm_pin(0, 0).read();
  }
  // All legs stay "up" only briefly (phase advances every 10 cycles), but
  // pronking keeps lift during phases 0..1 of step 0; with a 10-cycle
  // phase the elevation toggles. We only assert a plausible pulse exists.
  EXPECT_GT(high, 0u);
  EXPECT_LT(high, 4000u);
}

TEST(WalkingController, RejectsBadPhaseLength) {
  WalkingControllerParams p;
  p.cycles_per_phase = 0;
  EXPECT_THROW(ControllerHarness tb(p), std::invalid_argument);
  p.cycles_per_phase = 1u << 20;
  EXPECT_THROW(ControllerHarness tb2(p), std::invalid_argument);
}

TEST(WalkingController, LegIndexValidation) {
  ControllerHarness tb(fast_params());
  EXPECT_THROW((void)tb.ctrl.elevation_target(6), std::out_of_range);
  EXPECT_THROW((void)tb.ctrl.propulsion_target(6), std::out_of_range);
}

// ---- Discipulus top (Fig. 3) ----

DiscipulusParams fast_discipulus() {
  DiscipulusParams p;
  p.controller.cycles_per_phase = 10;
  return p;
}

TEST(Discipulus, ControllerHeldUntilEvolutionDone) {
  DiscipulusTop top(nullptr, "discipulus", fast_discipulus(), 42);
  rtl::Simulator sim(top);
  EXPECT_FALSE(top.evolution_done.read());
  EXPECT_FALSE(top.controller().run.read());
  sim.run_until([&] { return top.evolution_done.read(); }, 5'000'000);
  ASSERT_TRUE(top.evolution_done.read());
  EXPECT_TRUE(top.controller().run.read());
  // The controller is configured with the GAP's best individual.
  EXPECT_EQ(top.controller().genome.read(), top.gap().best_genome());
}

TEST(Discipulus, ExternalGenomeOverrideDrivesController) {
  DiscipulusTop top(nullptr, "discipulus", fast_discipulus(), 42);
  rtl::Simulator sim(top);
  top.use_external_genome.write(true);
  top.external_genome.write(genome::tripod_gait().to_bits());
  sim.run(25);
  EXPECT_TRUE(top.controller().run.read());
  EXPECT_EQ(top.controller().genome.read(), genome::tripod_gait().to_bits());
  EXPECT_NE(top.controller().phase.read(), 0u);  // sequencer is walking
}

TEST(Discipulus, SensorsAreForwarded) {
  DiscipulusTop top(nullptr, "discipulus", fast_discipulus(), 42);
  rtl::Simulator sim(top);
  top.ground_sensors.write(0x2A);
  top.obstacle_sensors.write(0x15);
  sim.step();
  EXPECT_EQ(top.controller().ground_sensors.read(), 0x2Au);
  EXPECT_EQ(top.controller().obstacle_sensors.read(), 0x15u);
}

}  // namespace
}  // namespace leo::core
