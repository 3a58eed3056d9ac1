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
// alternates them strictly. We measure cycles spent in the sel+xover
// phase per generation.
//
//   ./bench_pipeline_speedup [--iters N]   # N seeds (default 12)
//
// Emits BENCH_pipeline.json (shared runner; see bench_harness.hpp) with
// the measured speedup and per-phase cycle costs as leo_bench_pipeline_*
// gauges.
#include <cstdio>

#include "bench_harness.hpp"
#include "gap/gap_top.hpp"
#include "obs/metrics.hpp"
#include "rtl/simulator.hpp"
#include "util/stats.hpp"

namespace leo::bench {

const char* bench_name() { return "pipeline"; }

int bench_run(const Options& options) {
  using namespace leo;
  const std::uint64_t seeds = options.iters ? options.iters : 12;

  std::printf("E7 — selection+crossover pipelining (paper: \"a factor of "
              "about two\")\n\n");

  util::RunningStats pipe_per_gen;
  util::RunningStats seq_per_gen;
  util::RunningStats pipe_total;
  util::RunningStats seq_total;

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    for (const bool pipelined : {true, false}) {
      gap::GapParams params;
      params.pipelined = pipelined;
      gap::GapTop top(nullptr, "gap", params, seed);
      rtl::Simulator sim(top);
      if (!sim.run_until([&] { return top.done.read(); }, 20'000'000)) {
        std::printf("seed %llu did not converge\n",
                    static_cast<unsigned long long>(seed));
        continue;
      }
      const double per_gen =
          static_cast<double>(top.cycles_in_selxover()) /
          static_cast<double>(std::max<std::uint64_t>(1, top.generation()));
      (pipelined ? pipe_per_gen : seq_per_gen).add(per_gen);
      (pipelined ? pipe_total : seq_total)
          .add(static_cast<double>(sim.cycles()));
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
  std::printf("  pipelined : %8.0f mean\n", pipe_total.mean());
  std::printf("  sequential: %8.0f mean\n", seq_total.mean());

  std::printf("\nanalysis: our selection pass costs 9+ cycles/pair "
              "(candidates, two fitness-RAM\nreads, decide — twice) and "
              "crossover 6/pair (two genome reads, cut, two writes);\n"
              "overlapping them hides the shorter pass: measured %.2fx "
              "on the phase. The\npaper's exact microarchitecture is "
              "unpublished; a balanced one reaches 2x.\n", ratio);

  auto& reg = obs::registry();
  reg.gauge("leo_bench_pipeline_seeds").set(static_cast<double>(seeds));
  reg.gauge("leo_bench_pipeline_speedup").set(ratio);
  reg.gauge("leo_bench_pipeline_pipelined_cycles_per_gen")
      .set(pipe_per_gen.mean());
  reg.gauge("leo_bench_pipeline_sequential_cycles_per_gen")
      .set(seq_per_gen.mean());
  reg.gauge("leo_bench_pipeline_pipelined_total_cycles").set(pipe_total.mean());
  reg.gauge("leo_bench_pipeline_sequential_total_cycles").set(seq_total.mean());
  return 0;
}

}  // namespace leo::bench
