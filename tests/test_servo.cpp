// Tests for the PWM generator and the servo electromechanical model.
#include "servo/pwm.hpp"

#include <gtest/gtest.h>

#include "rtl/simulator.hpp"
#include "servo/servo_model.hpp"

namespace leo::servo {
namespace {

class PwmHarness final : public rtl::Module {
 public:
  explicit PwmHarness(PwmParams params = {})
      : rtl::Module(nullptr, "tb"), pwm(this, "pwm", params) {}
  PwmGenerator pwm;
  [[nodiscard]] rtl::Nets inputs() const override { return {}; }
  [[nodiscard]] rtl::Nets drives() const override { return {}; }
};

/// Measures the high time and period of the pin over `frames` PWM frames.
struct PulseMeasurement {
  std::uint32_t high_cycles = 0;
  std::uint32_t total_cycles = 0;
};

PulseMeasurement measure(rtl::Simulator& sim, PwmHarness& tb,
                         std::uint32_t cycles) {
  PulseMeasurement m;
  for (std::uint32_t i = 0; i < cycles; ++i) {
    sim.step();
    m.high_cycles += tb.pwm.pwm.read();
    ++m.total_cycles;
  }
  return m;
}

TEST(PwmGenerator, PulseWidthTracksPosition) {
  // Small frame keeps the test fast; field meanings are unchanged.
  PwmParams p;
  p.frame_cycles = 4000;
  p.min_pulse_cycles = 1000;
  p.position_shift = 2;
  PwmHarness tb(p);
  rtl::Simulator sim(tb);

  tb.pwm.position.write(0);
  sim.run(p.frame_cycles);  // first frame latches position 0
  const PulseMeasurement at0 = measure(sim, tb, p.frame_cycles);
  EXPECT_EQ(at0.high_cycles, 1000u);

  tb.pwm.position.write(255);
  sim.run(p.frame_cycles);  // latch at next frame boundary
  const PulseMeasurement at255 = measure(sim, tb, p.frame_cycles);
  EXPECT_EQ(at255.high_cycles, 1000u + 4u * 255u);
}

TEST(PwmGenerator, MidFramePositionChangeDoesNotGlitch) {
  PwmParams p;
  p.frame_cycles = 4000;
  PwmHarness tb(p);
  rtl::Simulator sim(tb);
  tb.pwm.position.write(0);
  sim.run(2 * p.frame_cycles);
  // Change the command mid-frame: the current frame's pulse must still be
  // the old width; the new width appears only after the frame boundary.
  sim.run(p.frame_cycles / 2);
  tb.pwm.position.write(200);
  const PulseMeasurement rest =
      measure(sim, tb, p.frame_cycles / 2 - 1);  // stop before the wrap
  EXPECT_EQ(rest.high_cycles, 0u);  // old 1000-cycle pulse already ended
  sim.step();  // frame boundary: new width latches
  const PulseMeasurement next = measure(sim, tb, p.frame_cycles);
  // A full-frame window sees exactly the new pulse width.
  EXPECT_EQ(next.high_cycles, 1000u + 4u * 200u);
}

TEST(PwmGenerator, PulseCyclesFormula) {
  PwmHarness tb;
  EXPECT_EQ(tb.pwm.pulse_cycles(0), 1000u);
  EXPECT_EQ(tb.pwm.pulse_cycles(128), 1000u + 512u);
  EXPECT_EQ(tb.pwm.pulse_cycles(255), 2020u);
}

TEST(PwmGenerator, RejectsPulseWiderThanFrame) {
  PwmParams p;
  p.frame_cycles = 1500;
  EXPECT_THROW(PwmHarness{p}, std::invalid_argument);
}

// ---- ServoModel ----

TEST(ServoModel, DecodesPulseWidthToTarget) {
  ServoModel servo;
  // 1.5 ms pulse -> centre.
  for (int t = 0; t < 1500; ++t) servo.tick(true);
  servo.tick(false);
  EXPECT_TRUE(servo.commanded());
  EXPECT_NEAR(servo.target(), 0.0, 0.03);
}

TEST(ServoModel, ExtremePulsesMapToLimits) {
  ServoModel lo;
  for (int t = 0; t < 1000; ++t) lo.tick(true);
  lo.tick(false);
  EXPECT_NEAR(lo.target(), -0.7854, 1e-6);

  ServoModel hi;
  for (int t = 0; t < 2020; ++t) hi.tick(true);
  hi.tick(false);
  EXPECT_NEAR(hi.target(), 0.7854, 1e-6);
}

TEST(ServoModel, SlewRateLimitsMotion) {
  ServoModel servo;
  for (int t = 0; t < 2020; ++t) servo.tick(true);
  servo.tick(false);
  // One microsecond of slew is tiny; the shaft cannot jump.
  EXPECT_LT(servo.angle(), 0.01);
  // After 300 ms of idle line it must have arrived (60 deg in ~200 ms).
  for (int t = 0; t < 300'000; ++t) servo.tick(false);
  EXPECT_NEAR(servo.angle(), servo.target(), 1e-3);
}

TEST(ServoModel, IgnoresRuntPulses) {
  ServoModel servo;
  for (int t = 0; t < 100; ++t) servo.tick(true);  // 100 us glitch
  servo.tick(false);
  EXPECT_FALSE(servo.commanded());
  EXPECT_EQ(servo.target(), 0.0);
}

TEST(ServoModel, IgnoresOverlongPulses) {
  ServoModel servo;
  for (int t = 0; t < 10'000; ++t) servo.tick(true);
  servo.tick(false);
  EXPECT_FALSE(servo.commanded());
}

TEST(ServoModel, NormalizedCoversMinusOneToOne) {
  ServoModel servo;
  for (int t = 0; t < 2020; ++t) servo.tick(true);
  servo.tick(false);
  for (int t = 0; t < 400'000; ++t) servo.tick(false);
  EXPECT_NEAR(servo.normalized(), 1.0, 1e-3);
}

TEST(ServoModel, RejectsBadParams) {
  ServoParams p;
  p.min_pulse_us = 2000;
  p.max_pulse_us = 1000;
  EXPECT_THROW(ServoModel{p}, std::invalid_argument);
}

TEST(PwmToServo, EndToEndSignalPath) {
  // RTL PWM pin -> servo demodulator: the servo must settle at the
  // commanded position.
  PwmParams p;  // default: 20 ms frame at 1 MHz
  PwmHarness tb(p);
  rtl::Simulator sim(tb);
  ServoModel servo;
  tb.pwm.position.write(255);
  for (int cycle = 0; cycle < 400'000; ++cycle) {  // 0.4 s at 1 MHz
    sim.step();
    servo.tick(tb.pwm.pwm.read());
  }
  EXPECT_NEAR(servo.normalized(), 1.0, 0.01);
}

}  // namespace
}  // namespace leo::servo
