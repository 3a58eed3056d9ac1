// E7 — the selection/crossover pipeline.
//
// Paper §3.2: "To decrease computation time by a factor of about two, we
// ran the selection and crossover operators in a pipeline. [...] the
// selection operator needs to read in the population and the crossover
// operator needs to write the new individuals in an intermediate
// population. This is why we used two populations of individuals."
//
// Both modes exist in the RTL GAP (GapParams::pipelined): pipelined runs
// the two engines concurrently through the pair FIFO; sequential
// alternates them strictly. Each seed runs through core::evolve on the
// hardware backend in both modes; we measure cycles spent in the
// sel+xover phase per generation, and whole-run cycles with their n and
// standard error. Whole runs spread so widely that the default is 500
// seeds: 12 ordered the two modes the wrong way round.
//
//   ./bench_pipeline_speedup [--iters N]   # N seeds (default 500)
//
// Emits BENCH_pipeline.json (shared runner; see bench_harness.hpp) with
// the phase and whole-run speedups, per-phase cycle costs, whole-run
// means (with their standard errors) and leo_rtl_cycles_total as exact
// values; all are cycle counts, so there is no measured one.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_harness.hpp"
#include "core/evolution_engine.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace leo::bench {

const char* bench_name() { return "pipeline"; }

int bench_run(const Options& options, Report& report) {
  using namespace leo;
  using util::standard_error;
  const std::uint64_t seeds = options.iters ? options.iters : 500;

  std::printf("E7 — selection+crossover pipelining (paper: \"a factor of "
              "about two\")\n\n");

  util::RunningStats pipe_per_gen;
  util::RunningStats seq_per_gen;
  util::RunningStats pipe_total;
  util::RunningStats seq_total;

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    for (const bool pipelined : {true, false}) {
      core::EvolutionConfig config;
      config.backend = core::Backend::kHardware;
      config.gap.pipelined = pipelined;
      config.seed = seed;
      const core::EvolutionResult r = core::evolve(config);
      if (!r.reached_target) {
        std::printf("seed %llu did not converge\n",
                    static_cast<unsigned long long>(seed));
        continue;
      }
      const double per_gen =
          static_cast<double>(r.selxover_cycles) /
          static_cast<double>(std::max<std::uint64_t>(1, r.generations));
      (pipelined ? pipe_per_gen : seq_per_gen).add(per_gen);
      (pipelined ? pipe_total : seq_total)
          .add(static_cast<double>(r.clock_cycles));
    }
  }

  std::printf("sel+xover cycles per generation:\n");
  std::printf("  pipelined : %6.1f (sd %.1f)\n", pipe_per_gen.mean(),
              pipe_per_gen.stddev());
  std::printf("  sequential: %6.1f (sd %.1f)\n", seq_per_gen.mean(),
              seq_per_gen.stddev());
  const double ratio = seq_per_gen.mean() / pipe_per_gen.mean();
  std::printf("  speedup   : %.2fx on the phase "
              "(paper claims \"about two\")\n\n", ratio);

  std::printf("whole-run cycles to convergence (all phases):\n");
  std::printf("  pipelined : %8.0f mean (n %zu, se %.0f)\n", pipe_total.mean(),
              pipe_total.count(), standard_error(pipe_total));
  std::printf("  sequential: %8.0f mean (n %zu, se %.0f)\n", seq_total.mean(),
              seq_total.count(), standard_error(seq_total));
  // Delta method for a ratio of two independent means: the two modes read
  // the free-running CA at different cycles, so a seed's runs diverge.
  const double total_ratio = seq_total.mean() / pipe_total.mean();
  const double total_ratio_se =
      total_ratio * std::hypot(standard_error(seq_total) / seq_total.mean(),
                               standard_error(pipe_total) / pipe_total.mean());
  std::printf("  speedup   : %.2fx whole-run (se %.2f)\n", total_ratio,
              total_ratio_se);

  std::printf("\nanalysis: our selection pass costs 9+ cycles/pair "
              "(candidates, two fitness-RAM\nreads, decide — twice) and "
              "crossover 6/pair (two genome reads, cut, two writes);\n"
              "overlapping them hides the shorter pass: measured %.2fx "
              "on the phase. The\npaper's exact microarchitecture is "
              "unpublished; a balanced one reaches 2x.\n", ratio);

  report.exact = {
      {"leo_bench_pipeline_seeds", static_cast<double>(seeds)},
      {"leo_bench_pipeline_speedup", ratio},
      {"leo_bench_pipeline_total_speedup", total_ratio},
      {"leo_bench_pipeline_total_speedup_se", total_ratio_se},
      {"leo_bench_pipeline_pipelined_cycles_per_gen", pipe_per_gen.mean()},
      {"leo_bench_pipeline_sequential_cycles_per_gen", seq_per_gen.mean()},
      {"leo_bench_pipeline_pipelined_total_cycles", pipe_total.mean()},
      {"leo_bench_pipeline_sequential_total_cycles", seq_total.mean()},
      {"leo_bench_pipeline_pipelined_total_cycles_se",
       standard_error(pipe_total)},
      {"leo_bench_pipeline_sequential_total_cycles_se",
       standard_error(seq_total)},
      {"leo_rtl_cycles_total",
       static_cast<double>(
           obs::registry().counter("leo_rtl_cycles_total").value())}};
  return 0;
}

}  // namespace leo::bench
