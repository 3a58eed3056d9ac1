// Settle-kernel comparison on the full GAP: the static rank-ordered
// schedule (SimMode::kLevel) vs the dense sweep (SimMode::kDense).
//
// The GAP's per-cycle activity is a handful of modules out of ten
// (one FSM advances, one RAM port moves), so the dense settle — evaluate
// every module, rescan every net, every pass, every cycle — does mostly
// wasted work. The static schedule evaluates each module at most once per
// cycle, in rank order, and only when one of its inputs changed. This
// bench runs the same full evolution (core::evolve on the hardware
// backend, identical seed, so bit-identical trajectories) under both
// kernels and reports per-kernel cycles/sec (timed over the whole
// evolve() call, tree build and elaboration included), evaluations/cycle
// and commits/cycle (registers committed: those set_next() scheduled, the
// same under both kernels).
//
//   ./bench_rtl_sim [--iters N]   # N seeds (default 8)
//
// Emits BENCH_rtl.json (shared runner; see bench_harness.hpp) with the
// per-cycle work counts and leo_rtl_cycles_total as exact values and both
// throughputs and their ratio as measured ones. The run aborts
// (nonzero exit) if the two kernels disagree on any evolved genome,
// fitness, generation count, or cycle count — the bench doubles as an
// end-to-end equivalence check.
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>

#include "bench_harness.hpp"
#include "core/evolution_engine.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace leo::bench {

const char* bench_name() { return "rtl"; }

namespace {

constexpr rtl::SimMode kModes[] = {rtl::SimMode::kLevel, rtl::SimMode::kDense};
constexpr const char* kModeNames[] = {"level", "dense"};
constexpr std::size_t kModeCount = 2;

}  // namespace

int bench_run(const Options& options, Report& report) {
  const std::uint64_t seeds = options.iters ? options.iters : 8;

  std::printf("RTL settle kernels — static rank-ordered schedule vs dense "
              "sweep on the GAP\n\n");

  util::RunningStats cps[kModeCount];
  util::RunningStats evals_per_cycle[kModeCount];
  util::RunningStats commits_per_cycle[kModeCount];
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    core::EvolutionResult results[kModeCount];
    double seconds[kModeCount];
    bool all_converged = true;
    for (std::size_t m = 0; m < kModeCount; ++m) {
      core::EvolutionConfig config;
      config.backend = core::Backend::kHardware;
      config.seed = seed;
      config.sim_mode = kModes[m];
      const auto start = std::chrono::steady_clock::now();
      results[m] = core::evolve(config);
      seconds[m] = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      all_converged = all_converged && results[m].reached_target;
    }
    if (!all_converged) {
      std::printf("seed %llu did not converge\n",
                  static_cast<unsigned long long>(seed));
      continue;
    }
    const core::EvolutionResult& a = results[0];
    const core::EvolutionResult& b = results[1];
    if (a.clock_cycles != b.clock_cycles || a.generations != b.generations ||
        a.best_genome != b.best_genome || a.best_fitness != b.best_fitness) {
      std::printf("MODE DIVERGENCE at seed %llu: "
                  "%s {cycles %llu gen %llu genome %09llx fit %u} vs "
                  "%s {cycles %llu gen %llu genome %09llx fit %u}\n",
                  static_cast<unsigned long long>(seed), kModeNames[0],
                  static_cast<unsigned long long>(a.clock_cycles),
                  static_cast<unsigned long long>(a.generations),
                  static_cast<unsigned long long>(a.best_genome),
                  a.best_fitness, kModeNames[1],
                  static_cast<unsigned long long>(b.clock_cycles),
                  static_cast<unsigned long long>(b.generations),
                  static_cast<unsigned long long>(b.best_genome),
                  b.best_fitness);
      return 1;
    }
    for (std::size_t m = 0; m < kModeCount; ++m) {
      const double cycles = static_cast<double>(results[m].clock_cycles);
      cps[m].add(cycles / seconds[m]);
      evals_per_cycle[m].add(static_cast<double>(results[m].rtl_evaluations) /
                             cycles);
      commits_per_cycle[m].add(static_cast<double>(results[m].rtl_commits) /
                               cycles);
    }
  }
  if (cps[0].count() == 0) {
    std::printf("no seed converged; nothing to report\n");
    return 1;
  }

  std::printf("identical results on %llu seed(s); per-kernel throughput:\n",
              static_cast<unsigned long long>(cps[0].count()));
  for (std::size_t m = 0; m < kModeCount; ++m) {
    std::printf("  %-6s: %10.0f cycles/sec (sd %.0f), %5.2f evaluate()/cycle, "
                "%5.2f commits/cycle\n",
                kModeNames[m], cps[m].mean(), cps[m].stddev(),
                evals_per_cycle[m].mean(), commits_per_cycle[m].mean());
  }
  const double level_vs_dense = cps[0].mean() / cps[1].mean();
  std::printf("  level vs dense: %.2fx\n", level_vs_dense);

  report.exact["leo_bench_rtl_seeds"] = static_cast<double>(cps[0].count());
  report.exact["leo_rtl_cycles_total"] = static_cast<double>(
      obs::registry().counter("leo_rtl_cycles_total").value());
  for (std::size_t m = 0; m < kModeCount; ++m) {
    const std::string prefix = std::string("leo_bench_rtl_") + kModeNames[m];
    report.measured[prefix + "_cycles_per_sec"] = cps[m].mean();
    report.exact[prefix + "_evals_per_cycle"] = evals_per_cycle[m].mean();
    report.exact[prefix + "_commits_per_cycle"] = commits_per_cycle[m].mean();
  }
  report.measured["leo_bench_rtl_level_speedup_vs_dense"] = level_vs_dense;
  return 0;
}

}  // namespace leo::bench
