#include "core/cosim.hpp"

namespace leo::core {

namespace {
std::array<servo::ServoModel, 12> make_servos(const servo::ServoParams& p) {
  return {servo::ServoModel(p), servo::ServoModel(p), servo::ServoModel(p),
          servo::ServoModel(p), servo::ServoModel(p), servo::ServoModel(p),
          servo::ServoModel(p), servo::ServoModel(p), servo::ServoModel(p),
          servo::ServoModel(p), servo::ServoModel(p), servo::ServoModel(p)};
}
}  // namespace

HardwareInTheLoop::HardwareInTheLoop(const CosimParams& params,
                                     robot::Terrain terrain,
                                     std::uint64_t rng_seed)
    : top_(nullptr, "discipulus", params.discipulus, rng_seed),
      sim_(top_),
      servos_(make_servos(params.servo)),
      walker_(robot::kLeonardoConfig, std::move(terrain)) {}

bool HardwareInTheLoop::evolve(std::uint64_t max_cycles) {
  return sim_.run_until([&] { return top_.evolution_done.read(); },
                        max_cycles);
}

void HardwareInTheLoop::load_genome(std::uint64_t genome_bits) {
  top_.use_external_genome.write(true);
  top_.external_genome.write(genome_bits);
}

std::array<genome::LegPose, robot::kNumLegs>
HardwareInTheLoop::quantized_pose() const {
  std::array<genome::LegPose, robot::kNumLegs> pose{};
  // A joint reads as raised / fore when its normalized angle ([-1, 1])
  // is above the midpoint.
  for (std::size_t leg = 0; leg < robot::kNumLegs; ++leg) {
    pose[leg].raised = servos_[leg * 2].normalized() > 0.0;
    pose[leg].fore = servos_[leg * 2 + 1].normalized() > 0.0;
  }
  return pose;
}

void HardwareInTheLoop::drive_sensors(const robot::SensorFrame& sensors) {
  std::uint8_t ground = 0;
  std::uint8_t obstacle = 0;
  for (std::size_t leg = 0; leg < robot::kNumLegs; ++leg) {
    if (sensors[leg].ground_contact) {
      ground = static_cast<std::uint8_t>(ground | (1u << leg));
    }
    if (sensors[leg].obstacle_contact) {
      obstacle = static_cast<std::uint8_t>(obstacle | (1u << leg));
    }
  }
  top_.ground_sensors.write(ground);
  top_.obstacle_sensors.write(obstacle);
}

CosimWalkMetrics HardwareInTheLoop::run(std::uint64_t cycles) {
  CosimWalkMetrics metrics;
  const double start_x = walker_.body().position.x;

  std::array<genome::LegPose, robot::kNumLegs> committed =
      walker_.legs();

  for (std::uint64_t i = 0; i < cycles; ++i) {
    sim_.step();
    ++metrics.cycles;
    for (std::size_t s = 0; s < servos_.size(); ++s) {
      const std::size_t leg = s / 2;
      const std::size_t channel = s % 2;
      servos_[s].tick(top_.controller().pwm_pin(leg, channel).read());
    }
    const auto pose = quantized_pose();
    if (pose != committed) {
      const robot::Walker::PoseStepResult step = walker_.apply_pose(pose);
      committed = pose;
      ++metrics.pose_steps;
      if (step.fell) ++metrics.falls;
      if (step.stumbled) ++metrics.stumbles;
      // Close the loop: report the new contact state to the FPGA.
      robot::SensorFrame sensors{};
      const robot::LegKinematics kin(walker_.config());
      for (std::size_t leg = 0; leg < robot::kNumLegs; ++leg) {
        const auto bf = kin.foot_body_frame(leg, walker_.legs()[leg]);
        const auto world = kin.foot_world_frame(leg, bf, walker_.body(),
                                                walker_.articulation());
        sensors[leg].ground_contact =
            !walker_.legs()[leg].raised &&
            robot::ground_contact(walker_.terrain(), world.xy, world.z);
      }
      drive_sensors(sensors);
    }
  }

  metrics.distance_forward_m = walker_.body().position.x - start_x;
  return metrics;
}

}  // namespace leo::core
