#include "core/walking_controller.hpp"

#include <stdexcept>

#include "genome/phases.hpp"

namespace leo::core {

namespace {
using genome::kNumLegs;

/// Genome bit index of `field` for (step, leg): see genome/gait_genome.hpp.
constexpr unsigned field_bit(unsigned step, std::size_t leg, unsigned field) {
  return step * 18u + static_cast<unsigned>(leg) * 3u + field;
}
}  // namespace

WalkingController::WalkingController(rtl::Module* parent, std::string name,
                                     WalkingControllerParams params)
    : rtl::Module(parent, std::move(name)),
      genome(this, "genome", static_cast<unsigned>(genome::kGenomeBits)),
      run(this, "run", 1),
      ground_sensors(this, "ground_sensors", 6),
      obstacle_sensors(this, "obstacle_sensors", 6),
      phase(this, "phase", 3),
      params_(params),
      timer_(this, "timer", 20),
      phase_(this, "phase_reg", 3),
      elevation_state_(this, "elevation_state", 6),
      propulsion_state_(this, "propulsion_state", 6) {
  if (params_.cycles_per_phase == 0) {
    throw std::invalid_argument("WalkingController: cycles_per_phase >= 1");
  }
  if (params_.cycles_per_phase >= (1u << 20)) {
    throw std::invalid_argument(
        "WalkingController: phase timer is 20 bits (max ~1.05 s at 1 MHz)");
  }
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    pwm_[leg * 2] = std::make_unique<servo::PwmGenerator>(
        this, "servo_elev_" + std::to_string(leg), params_.pwm);
    pwm_[leg * 2 + 1] = std::make_unique<servo::PwmGenerator>(
        this, "servo_prop_" + std::to_string(leg), params_.pwm);
  }
}

const rtl::Wire<bool>& WalkingController::pwm_pin(std::size_t leg,
                                                  std::size_t channel) const {
  return pwm_.at(leg * 2 + channel)->pwm;
}

bool WalkingController::decode_elevation(std::size_t leg) const {
  const unsigned p = phase_.read();
  const unsigned step = p / 3;
  const unsigned kind = p % 3;
  const std::uint64_t g = genome.read();
  switch (kind) {
    case 0:  // first vertical move
      return (g >> field_bit(step, leg, 0)) & 1;
    case 2:  // final vertical move
      return (g >> field_bit(step, leg, 2)) & 1;
    default:  // horizontal phase: elevation holds
      return (elevation_state_.read() >> leg) & 1;
  }
}

bool WalkingController::decode_propulsion(std::size_t leg) const {
  const unsigned p = phase_.read();
  const unsigned step = p / 3;
  if (p % 3 == 1) {  // horizontal move
    return (genome.read() >> field_bit(step, leg, 1)) & 1;
  }
  return (propulsion_state_.read() >> leg) & 1;  // vertical phases hold
}

bool WalkingController::elevation_target(std::size_t leg) const {
  if (leg >= kNumLegs) throw std::out_of_range("elevation_target: leg");
  return decode_elevation(leg);
}

bool WalkingController::propulsion_target(std::size_t leg) const {
  if (leg >= kNumLegs) throw std::out_of_range("propulsion_target: leg");
  return decode_propulsion(leg);
}

rtl::Nets WalkingController::drives() const {
  rtl::Nets d{&phase};
  for (const auto& p : pwm_) d.push_back(&p->position);
  return d;
}

void WalkingController::evaluate() {
  phase.write(phase_.read());
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    pwm_[leg * 2]->position.write(decode_elevation(leg) ? 255 : 0);
    pwm_[leg * 2 + 1]->position.write(decode_propulsion(leg) ? 255 : 0);
  }
}

void WalkingController::clock_edge() {
  if (!run.read()) return;  // frozen: servos hold, timer paused

  // Latch the decoded targets so "hold" phases keep the moved positions
  // after the phase advances.
  std::uint8_t elev = 0;
  std::uint8_t prop = 0;
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    elev = static_cast<std::uint8_t>(
        elev | (decode_elevation(leg) ? (1u << leg) : 0u));
    prop = static_cast<std::uint8_t>(
        prop | (decode_propulsion(leg) ? (1u << leg) : 0u));
  }
  elevation_state_.set_next(elev);
  propulsion_state_.set_next(prop);

  if (timer_.read() + 1 >= params_.cycles_per_phase) {
    timer_.set_next(0);
    phase_.set_next(static_cast<std::uint8_t>(
        (phase_.read() + 1) % genome::kPhasesPerCycle));
  } else {
    timer_.set_next(timer_.read() + 1);
  }
}

rtl::ResourceTally WalkingController::own_resources() const {
  rtl::ResourceTally t = Module::own_resources();
  t.lut4 += 20 /* timer increment + compare */ +
            2 * genome::kNumLegs * 2 /* field decode muxes per servo */;
  return t;
}

}  // namespace leo::core
