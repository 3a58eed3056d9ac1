// E6 — the fitness landscape of the 36-bit gait space.
//
// Paper §3.1: "one individual is composed of 36 bits, giving rise to a
// search space of size 2^36 = 68 billion possibilities."
//
// The rules' structure permits exact analysis: maximum-fitness genomes
// are counted exactly (no 2^36 scan needed) and the score distribution is
// sampled at scale — the numbers that explain why the GA converges in
// thousands of evaluations.
//
//   ./bench_fitness_landscape [--iters N]   # N samples (default 2000000)
//
// Emits BENCH_landscape.json (shared runner; see bench_harness.hpp) with
// the exact maximum-fitness count and the seeded sample's score
// statistics as exact leo_bench_landscape_* values.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_harness.hpp"
#include "fitness/landscape.hpp"
#include "genome/gait_genome.hpp"
#include "util/rng.hpp"

namespace leo::bench {

const char* bench_name() { return "landscape"; }

int bench_run(const Options& options, Report& report) {
  const std::uint64_t samples = options.iters ? options.iters : 2'000'000;

  std::printf("E6 — fitness landscape over 2^36 = %llu genomes\n\n",
              static_cast<unsigned long long>(genome::kSearchSpace));

  const std::uint64_t max_count = fitness::count_max_fitness_exact();
  std::printf("maximum-fitness genomes (exact): %llu\n",
              static_cast<unsigned long long>(max_count));
  std::printf("density: %.3g   expected uniform draws to hit one: %.3g\n\n",
              fitness::max_fitness_density(),
              fitness::expected_random_draws_to_max());

  util::Xoshiro256 rng(7);
  const fitness::LandscapeSample sample =
      fitness::sample_landscape(samples, rng);
  std::printf("sampled %llu random genomes: mean score %.2f, sd %.2f, "
              "min %g, max %g, maxima hit %llu\n\n",
              static_cast<unsigned long long>(samples), sample.scores.mean(),
              sample.scores.stddev(), sample.scores.min(),
              sample.scores.max(),
              static_cast<unsigned long long>(sample.max_hits));

  std::printf("score histogram (61 bins, 0..60):\n");
  // Compact rendering: merge into 10 ranges plus the exact top scores.
  for (unsigned lo = 0; lo <= 54; lo += 6) {
    std::uint64_t count = 0;
    for (unsigned s = lo; s < lo + 6 && s <= 60; ++s) {
      count += sample.histogram.bin_count(s);
    }
    const auto bar = static_cast<std::size_t>(
        60.0 * static_cast<double>(count) /
        static_cast<double>(sample.histogram.total()));
    std::printf("  [%2u..%2u] %9llu %s\n", lo, std::min(lo + 5, 60u),
                static_cast<unsigned long long>(count),
                std::string(bar, '#').c_str());
  }
  for (unsigned s = 56; s <= 60; ++s) {
    std::printf("  score %2u %9llu\n", s,
                static_cast<unsigned long long>(sample.histogram.bin_count(s)));
  }

  std::printf("\nreading: random genomes average ~2/3 of the maximum (the "
              "rules are individually\neasy) but the all-rules-satisfied "
              "set has measure ~1.3e-6 — random search\nneeds ~8e5 draws "
              "where the GA needs ~2e3 evaluations (see E1/E2).\n");

  report.exact = {
      {"leo_bench_landscape_max_fitness_genomes",
       static_cast<double>(max_count)},
      {"leo_bench_landscape_max_fitness_density",
       fitness::max_fitness_density()},
      {"leo_bench_landscape_samples", static_cast<double>(samples)},
      {"leo_bench_landscape_sample_score_mean", sample.scores.mean()},
      {"leo_bench_landscape_sample_score_sd", sample.scores.stddev()},
      {"leo_bench_landscape_sample_max_hits",
       static_cast<double>(sample.max_hits)}};
  return 0;
}

}  // namespace leo::bench
