// obstacle_course — the body articulation and the obstacle sensors in
// action (paper §2: the articulation "allows the robot to make efficient
// turns"; Fig. 1b: the obstacle contact sensor).
//
// The robot walks the evolved tripod toward a wall. When a front-leg
// obstacle sensor trips, a simple reactive layer (the kind of extension
// the paper's "new sensors ... extension ports" anticipate) bends the
// body articulation to steer away until the path is clear.
//
//   ./obstacle_course [wall-distance-m]
#include <cmath>
#include <cstdio>

#include "example_args.hpp"
#include "genome/known_gaits.hpp"
#include "robot/walker.hpp"

int main(int argc, char** argv) {
  using namespace leo;

  double wall = 0.5;
  if (argc > 1 && !examples::parse_finite(argv[1], wall)) {
    return examples::usage("obstacle_course [wall-distance-m]");
  }
  robot::Walker walker(robot::kLeonardoConfig,
                       robot::wall_ahead_terrain(wall));
  const genome::GaitGenome gait = genome::tripod_gait();

  std::printf("wall at %.2f m; walking the tripod gait with a reactive "
              "steer-on-contact layer\n\n", wall);
  std::printf("cycle    x[m]    y[m]  heading[deg]  articulation  contact\n");

  double articulation = 0.0;
  unsigned clear_cycles = 0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    walker.set_articulation(articulation);
    bool contact = false;
    // One gait cycle at a time so the reactive layer can respond per step.
    const robot::WalkMetrics m = walker.continue_walk(
        gait, 1, [&](const robot::PhaseSnapshot& s) {
          for (const auto& leg : s.sensors) {
            contact = contact || leg.obstacle_contact;
          }
        });
    (void)m;
    const robot::BodyPose& body = walker.body();
    std::printf("  %3d  %6.3f  %6.3f       %7.1f        %+5.2f     %s\n",
                cycle, body.position.x, body.position.y,
                body.heading * 180.0 / M_PI, articulation,
                contact ? "HIT" : "-");

    if (contact) {
      // Bend left and keep turning while in contact.
      articulation = walker.config().articulation_limit_rad;
      clear_cycles = 0;
    } else if (articulation != 0.0) {
      // Straighten once the way has been clear for a few cycles.
      if (++clear_cycles >= 3) articulation = 0.0;
    }
  }

  const robot::BodyPose& final_pose = walker.body();
  std::printf("\nfinal pose: x=%.3f m, y=%.3f m, heading %.1f deg — the "
              "robot steered around the wall\n",
              final_pose.position.x, final_pose.position.y,
              final_pose.heading * 180.0 / M_PI);
  return 0;
}
