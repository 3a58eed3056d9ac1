// gait_playback — inspect any 36-bit genome: gait diagram, per-phase
// trace on the robot model, and the walk metrics.
//
//   ./gait_playback              # plays the canonical tripod
//   ./gait_playback 0xf22f22     # plays an arbitrary genome (hex)
//   ./gait_playback --list       # shows the library of reference gaits
#include <cstdio>
#include <cstring>

#include "example_args.hpp"
#include "fitness/rules.hpp"
#include "genome/known_gaits.hpp"
#include "robot/walker.hpp"

namespace {

void play(const char* name, const leo::genome::GaitGenome& g) {
  using namespace leo;
  const fitness::RuleViolations v = fitness::count_violations(g);
  std::printf("=== %s ===\ngenome  : %s\nfitness : %u/%u  (R1 equilibrium %u, "
              "R2 symmetry %u, R3 coherence %u)\n\n%s\n",
              name, g.to_hex().c_str(), fitness::score(g),
              fitness::kDefaultSpec.max_score(), v.equilibrium, v.symmetry,
              v.coherence, g.diagram().c_str());

  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  std::printf("cycle phase    x[mm] margin[mm]  legs (^=air, _=ground)\n");
  const robot::WalkMetrics m = walker.walk(
      g, 3, [](const robot::PhaseSnapshot& s) {
        std::printf("  %2zu    %zu    %7.1f   %7.1f   ", s.cycle, s.phase,
                    s.body.position.x * 1000.0, s.margin * 1000.0);
        for (const auto& leg : s.legs) {
          std::printf("%c%c ", leg.raised ? '^' : '_', leg.fore ? '>' : '<');
        }
        if (s.fell) std::printf(" FALL");
        else if (s.stumbled) std::printf(" stumble");
        std::printf("\n");
      });
  std::printf("\n3 cycles: %+.3f m forward, %u falls, %u stumbles, "
              "min margin %+.1f mm, quality %.2f\n\n",
              m.distance_forward_m, m.falls, m.stumbles,
              m.min_margin_m * 1000.0,
              m.quality(walker.ideal_distance(3)));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace leo::genome;

  if (argc > 1 && std::strcmp(argv[1], "--list") == 0) {
    play("tripod", tripod_gait());
    play("tripod (mirrored)", tripod_gait_mirrored());
    play("all-zero (shuffles in place)", all_zero_gait());
    play("pronking (falls)", pronking_gait());
    play("one side lifted (the paper's R1 example)", one_side_lifted_gait());
    play("reverse tripod (walks backwards)", reverse_tripod_gait());
  } else if (argc > 1) {
    std::uint64_t bits = 0;
    if (!leo::examples::parse_number(argv[1], bits)) {
      return leo::examples::usage("gait_playback [genome | --list]");
    }
    if (bits >= kSearchSpace) {
      std::fprintf(stderr, "genome must fit in 36 bits\n");
      return 1;
    }
    play(argv[1], GaitGenome::from_bits(bits));
  } else {
    play("tripod", tripod_gait());
  }
  return 0;
}
