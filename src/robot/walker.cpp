#include "robot/walker.hpp"

#include <algorithm>
#include <cmath>

namespace leo::robot {

double WalkMetrics::quality(double ideal_distance_m) const noexcept {
  if (falls > 0 || ideal_distance_m <= 0.0) return 0.0;
  return std::clamp(distance_forward_m / ideal_distance_m, 0.0, 1.0);
}

Walker::Walker(const RobotConfig& config, Terrain terrain)
    : config_(config), terrain_(std::move(terrain)), kin_(config_) {
  reset();
}

void Walker::set_articulation(double rad) noexcept {
  articulation_ = std::clamp(rad, -config_.articulation_limit_rad,
                             config_.articulation_limit_rad);
}

void Walker::reset() {
  body_ = BodyPose{};
  legs_.fill(genome::LegPose{false, false});  // planted, aft
}

std::vector<Vec2> Walker::stance_feet_world() const {
  std::vector<Vec2> feet;
  feet.reserve(kNumLegs);
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    if (legs_[leg].raised) continue;
    const FootPosition bf = kin_.foot_body_frame(leg, legs_[leg]);
    feet.push_back(kin_.foot_world_frame(leg, bf, body_, articulation_).xy);
  }
  return feet;
}

bool Walker::body_blocked_by_obstacle(double forward_m) const {
  // Advance the body's front edge along the heading and test whether it
  // would enter any obstacle side at body height.
  const Vec2 nose_local{config_.body_length_m / 2.0, 0.0};
  const Vec2 from = body_.position + rotate(nose_local, body_.heading);
  const Vec2 dir = rotate({1.0, 0.0}, body_.heading);
  const Vec2 to = from + dir * forward_m;
  return terrain_.blocking_obstacle(from, to, config_.standing_height_m)
      .has_value();
}

Walker::PoseStepResult Walker::execute_phase(
    const genome::GaitGenome& genome, std::size_t phase,
    SensorFrame& sensors) {
  // A phase changes exactly one pose component per leg (paper §3.1: a
  // vertical move, then a horizontal move, then a vertical move); the
  // other component carries over — which is what makes the second and
  // later cycles steady-state rather than replays of the first.
  const std::size_t step = genome::phase_step(phase);
  std::array<genome::LegPose, kNumLegs> targets = legs_;
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    const genome::LegGene& gene = genome.gene(step, leg);
    switch (genome::phase_kind(phase)) {
      case genome::PhaseKind::kVerticalFirst:
        targets[leg].raised = gene.lift_first;
        break;
      case genome::PhaseKind::kHorizontal:
        targets[leg].fore = gene.forward;
        break;
      case genome::PhaseKind::kVerticalLast:
        targets[leg].raised = gene.lift_last;
        break;
    }
  }
  return move_legs(targets, sensors);
}

Walker::PoseStepResult Walker::apply_pose(
    const std::array<genome::LegPose, kNumLegs>& targets) {
  SensorFrame sensors{};
  return move_legs(targets, sensors);
}

Walker::PoseStepResult Walker::move_legs(
    const std::array<genome::LegPose, kNumLegs>& targets,
    SensorFrame& sensors) {
  PoseStepResult out;
  Vec2 applied_translation{};
  double applied_heading = 0.0;

  // A horizontal move is pending for any leg whose fore target differs;
  // heights update after the sweep resolves (with the current heights
  // deciding which legs propel).
  bool any_horizontal = false;
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    any_horizontal = any_horizontal || targets[leg].fore != legs_[leg].fore;
  }

  if (any_horizontal) {
    // Planted feet constrain the body: if they sweep by d in the body
    // frame, the body translates by -mean(d). Disagreement among planted
    // feet is dragged out as slip.
    double sum_delta = 0.0;
    std::vector<double> planted_deltas;
    planted_deltas.reserve(kNumLegs);
    for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
      const double delta =
          (static_cast<double>(targets[leg].fore) -
           static_cast<double>(legs_[leg].fore)) * config_.stride_m;
      if (!legs_[leg].raised) {
        planted_deltas.push_back(delta);
        sum_delta += delta;
      } else if (delta != 0.0) {
        // Swing legs reposition through the air; test for obstacle hits.
        const FootPosition from_bf = kin_.foot_body_frame(leg, legs_[leg]);
        const FootPosition to_bf = kin_.foot_body_frame(leg, targets[leg]);
        const auto from_w = kin_.foot_world_frame(leg, from_bf, body_,
                                                  articulation_);
        const auto to_w = kin_.foot_world_frame(leg, to_bf, body_,
                                                articulation_);
        if (terrain_.blocking_obstacle(from_w.xy, to_w.xy, from_w.z)) {
          sensors[leg].obstacle_contact = true;
        }
      }
    }

    if (planted_deltas.empty()) {
      // Nothing supports the robot during the sweep: it is already on the
      // ground (counted as a fall by the stability check below).
      out.forward_m = 0.0;
    } else {
      double forward =
          -sum_delta / static_cast<double>(planted_deltas.size());
      const double attempted = forward;
      if (forward > 0.0 && body_blocked_by_obstacle(forward)) {
        out.blocked = true;
        forward = 0.0;
        // The blocked front corner is what the paper's obstacle switch
        // senses; attribute it to the front legs.
        sensors[0].obstacle_contact = true;
        sensors[3].obstacle_contact = true;
      }
      for (double d : planted_deltas) {
        out.slip_m += std::abs(d + forward);
      }
      // Translate the body and steer: the articulation biases the stance
      // sweep, turning the robot in proportion to the distance covered.
      applied_translation = rotate({forward, 0.0}, body_.heading);
      body_.position = body_.position + applied_translation;
      // Steering comes from the stance sweep itself (the bent body makes
      // the two ends push along different arcs), so it scales with the
      // attempted sweep: a robot blocked nose-on still pivots free.
      if (config_.stride_m > 0.0 && articulation_ != 0.0) {
        applied_heading = articulation_ / config_.articulation_limit_rad *
                          config_.turn_gain_rad_per_step *
                          (std::abs(attempted) / config_.stride_m);
        body_.heading += applied_heading;
      }
      out.forward_m = forward;
    }
  }

  // Commit leg targets (vertical phases just raise/lower). Instability
  // never alters the commanded positions: the servos keep driving the
  // genome's sequence whether or not the body wobbles.
  legs_ = targets;

  // Ground sensors reflect the settled pose.
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    const FootPosition bf = kin_.foot_body_frame(leg, legs_[leg]);
    const auto world = kin_.foot_world_frame(leg, bf, body_, articulation_);
    sensors[leg].ground_contact =
        !legs_[leg].raised && ground_contact(terrain_, world.xy, world.z);
  }

  // Quasi-static stability of the settled pose. A slightly-outside CoM
  // tips the body until a raised foot (15 mm clearance) catches it: a
  // stumble. Losing support entirely, or tipping beyond fall_margin_m,
  // is a fall — and a falling robot propels nothing, so the phase's
  // translation is taken back.
  const auto stance = stance_feet_world();
  out.margin = support_margin(stance, body_.position);
  if (stance.empty() || out.margin < -config_.fall_margin_m) {
    out.fell = true;
    body_.position = body_.position - applied_translation;
    body_.heading -= applied_heading;
    out.forward_m = 0.0;
  } else if (out.margin < 0.0) {
    out.stumbled = true;
  }
  return out;
}

WalkMetrics Walker::walk(const genome::GaitGenome& genome, unsigned cycles,
                         const PhaseObserver& observer) {
  reset();
  return continue_walk(genome, cycles, observer);
}

WalkMetrics Walker::continue_walk(const genome::GaitGenome& genome,
                                  unsigned cycles,
                                  const PhaseObserver& observer) {
  const BodyPose start = body_;

  WalkMetrics m;
  double margin_sum = 0.0;
  unsigned margin_count = 0;
  bool min_margin_set = false;

  for (unsigned cycle = 0; cycle < cycles; ++cycle) {
    for (std::size_t phase = 0; phase < genome::kPhasesPerCycle; ++phase) {
      SensorFrame sensors{};
      const Vec2 before = body_.position;
      const PoseStepResult out = execute_phase(genome, phase, sensors);
      const Vec2 after = body_.position;
      m.path_length_m += std::hypot(after.x - before.x, after.y - before.y);
      m.slip_m += out.slip_m;
      ++m.phases_executed;
      if (out.fell) {
        ++m.falls;
      } else {
        if (out.stumbled) ++m.stumbles;
        margin_sum += out.margin;
        ++margin_count;
        if (!min_margin_set || out.margin < m.min_margin_m) {
          m.min_margin_m = out.margin;
          min_margin_set = true;
        }
      }
      bool hit = false;
      for (const auto& s : sensors) hit = hit || s.obstacle_contact;
      if (hit || out.blocked) ++m.obstacle_hits;

      if (observer) {
        PhaseSnapshot snap;
        snap.cycle = cycle;
        snap.phase = phase;
        snap.body = body_;
        snap.legs = legs_;
        snap.sensors = sensors;
        snap.margin = out.margin;
        snap.fell = out.fell;
        snap.stumbled = out.stumbled;
        observer(snap);
      }
    }
  }

  const Vec2 net = body_.position - start.position;
  const Vec2 fwd = rotate({1.0, 0.0}, start.heading);
  m.distance_forward_m = net.x * fwd.x + net.y * fwd.y;
  m.net_heading_rad = body_.heading - start.heading;
  m.mean_margin_m = margin_count ? margin_sum / margin_count : 0.0;
  return m;
}

double Walker::ideal_distance(unsigned cycles) const noexcept {
  if (cycles == 0) return 0.0;
  return (2.0 * cycles - 1.0) * config_.stride_m;
}

}  // namespace leo::robot
