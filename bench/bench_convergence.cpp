// E1 — convergence of the GA to maximum fitness.
//
// Paper §3.3: "To evolve the maximum fitness it needs an average of about
// 2000 generations."
//
// Reproduced with the paper's exact parameters (population 32, genome 36,
// selection 0.8, crossover 0.7, 15 mutations/generation) on both the
// software reference GA and the cycle-accurate hardware GAP. The paper's
// fitness arithmetic is unpublished; EXPERIMENTS.md discusses why the
// absolute generation counts differ while the shape (a few-thousand-
// evaluation search in a 6.9e10 space) holds.
//
//   ./bench_convergence [sw-trials] [hw-trials] [csv-path]
//   ./bench_convergence --iters N          # N software / max(1, N/4) hw trials
//
// Trial counts are positive integers; anything else prints usage and exits
// with status 2.
//
// Emits BENCH_ga.json (shared runner; see bench_harness.hpp): the paper's
// headline numbers as leo_bench_ga_* gauges plus the instrumented layers'
// own counters, so the perf trajectory accumulates run over run. The
// software GA's throughput, leo_bench_ga_sw_generations_per_sec, times
// core::evolve() over the software trials' seeds on one thread.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_harness.hpp"
#include "core/evolution_engine.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "util/csv.hpp"

namespace leo::bench {

const char* bench_name() { return "ga"; }

namespace {

/// Strict positive decimal count; false for empty, signed, non-numeric,
/// trailing-garbage, out-of-range or zero input.
bool parse_trials(const std::string& text, std::size_t& out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0 || value == 0) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

/// Software generations per wall-clock second: sequential core::evolve()
/// over seeds 1..trials, repeated until at least 0.25 s have elapsed.
double sw_generations_per_sec(const core::EvolutionConfig& config,
                              std::size_t trials) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t generations = 0;
  const Clock::time_point start = Clock::now();
  double seconds = 0.0;
  do {
    for (std::size_t i = 0; i < trials; ++i) {
      core::EvolutionConfig trial = config;
      trial.seed = 1 + i;
      generations += core::evolve(trial).generations;
    }
    seconds = std::chrono::duration<double>(Clock::now() - start).count();
  } while (seconds < 0.25);
  return static_cast<double>(generations) / seconds;
}

}  // namespace

int bench_run(const Options& options) {
  using namespace leo;
  std::size_t sw_trials = options.iters ? options.iters : 100;
  std::size_t hw_trials =
      options.iters ? std::max<std::uint64_t>(1, options.iters / 4) : 25;
  const auto& argv = options.args;
  if ((argv.size() > 0 && !parse_trials(argv[0], sw_trials)) ||
      (argv.size() > 1 && !parse_trials(argv[1], hw_trials)) ||
      argv.size() > 3) {
    std::fprintf(stderr,
                 "usage: bench_convergence [--iters N] [--out PATH] "
                 "[--no-json] [sw-trials [hw-trials [csv-path]]]\n"
                 "  trial counts are positive integers\n");
    return 2;
  }

  std::printf("E1 — generations to maximum fitness "
              "(paper: \"an average of about 2000 generations\")\n\n");

  core::EvolutionConfig sw;
  sw.backend = core::Backend::kSoftware;
  const core::TrialSummary sw_sum = core::run_trials(sw, sw_trials, 1);
  std::printf("software GA (%zu trials):\n  %s\n", sw_trials,
              core::describe(sw_sum).c_str());
  const double sw_gens_per_sec = sw_generations_per_sec(sw, sw_trials);
  std::printf("  throughput: %.0f generations/s (one thread)\n\n",
              sw_gens_per_sec);

  core::EvolutionConfig hw;
  hw.backend = core::Backend::kHardware;
  const core::TrialSummary hw_sum = core::run_trials(hw, hw_trials, 1);
  std::printf("hardware GAP, cycle-accurate RTL (%zu trials):\n  %s\n\n",
              hw_trials, core::describe(hw_sum).c_str());

  std::printf("paper-reported        : ~2000 generations (~64,000 "
              "evaluations), ~10 min at 1 MHz\n");
  std::printf("measured (software GA): %.0f generations (%.0f evaluations)\n",
              sw_sum.generations.mean(), sw_sum.evaluations.mean());
  std::printf("measured (RTL GAP)    : %.0f generations, %.0f cycles = "
              "%.4f s at 1 MHz\n",
              hw_sum.generations.mean(), hw_sum.clock_cycles.mean(),
              hw_sum.clock_cycles.mean() / 1e6);
  std::printf("\nshape check: thousands of evaluations out of 2^36 = "
              "6.9e10 genomes — %s\n",
              sw_sum.evaluations.mean() < 1e6 ? "REPRODUCED" : "NOT met");

  if (argv.size() > 2) {
    util::CsvWriter csv(argv[2], {"backend", "seed", "generations",
                                  "evaluations", "cycles"});
    for (std::size_t i = 0; i < sw_sum.runs.size(); ++i) {
      csv.row({"software", std::to_string(1 + i),
               std::to_string(sw_sum.runs[i].generations),
               std::to_string(sw_sum.runs[i].evaluations), "0"});
    }
    for (std::size_t i = 0; i < hw_sum.runs.size(); ++i) {
      csv.row({"hardware", std::to_string(1 + i),
               std::to_string(hw_sum.runs[i].generations),
               std::to_string(hw_sum.runs[i].evaluations),
               std::to_string(hw_sum.runs[i].clock_cycles)});
    }
    std::printf("wrote %s\n", argv[2].c_str());
  }

  auto& reg = obs::registry();
  reg.gauge("leo_bench_ga_sw_trials").set(static_cast<double>(sw_trials));
  reg.gauge("leo_bench_ga_hw_trials").set(static_cast<double>(hw_trials));
  reg.gauge("leo_bench_ga_sw_generations_mean").set(sw_sum.generations.mean());
  reg.gauge("leo_bench_ga_sw_evaluations_mean").set(sw_sum.evaluations.mean());
  reg.gauge("leo_bench_ga_sw_generations_per_sec").set(sw_gens_per_sec);
  reg.gauge("leo_bench_ga_hw_generations_mean").set(hw_sum.generations.mean());
  reg.gauge("leo_bench_ga_hw_cycles_mean").set(hw_sum.clock_cycles.mean());
  reg.gauge("leo_bench_ga_hw_seconds_at_1mhz_mean")
      .set(hw_sum.clock_cycles.mean() / 1e6);
  return 0;
}

}  // namespace leo::bench
