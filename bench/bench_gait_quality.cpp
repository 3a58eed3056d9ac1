// E4 — do maximum-fitness gaits actually walk?
//
// Paper §3.3: "the maximum fitness does not necessarily correspond to the
// best walk known for the robot. However, the walking behavior found with
// the maximum fitness respecting all these rules is nonetheless good."
//
// We make both halves of that sentence measurable on the quasi-static
// robot model: reference gaits, uniformly sampled rule-optimal genomes,
// GA-evolved genomes and uniform random genomes, each walked for 10
// cycles. Quality = forward distance / ideal, zeroed by falls.
//
//   ./bench_gait_quality [--iters N]   # N evolved seeds (default 50)
//
// Emits BENCH_gait.json (shared runner; see bench_harness.hpp): each
// population's quality mean, distance mean and share of runs with falls
// as exact leo_bench_gait_<population>_* values.
#include <cstdio>
#include <string>

#include "bench_harness.hpp"
#include "core/evolution_engine.hpp"
#include "fitness/rules.hpp"
#include "genome/gait_analysis.hpp"
#include "genome/known_gaits.hpp"
#include "robot/walker.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace leo::bench {

const char* bench_name() { return "gait"; }

namespace {

struct Row {
  const char* key = "";  ///< key infix: leo_bench_gait_<key>_*
  const char* population = "";
  util::RunningStats quality{};
  util::RunningStats distance{};
  std::size_t with_falls = 0;
  std::size_t n = 0;
};

void add_walk(Row& row, robot::Walker& walker, const genome::GaitGenome& g) {
  const robot::WalkMetrics m = walker.walk(g, 10);
  row.quality.add(m.quality(walker.ideal_distance(10)));
  row.distance.add(m.distance_forward_m);
  if (m.falls > 0) ++row.with_falls;
  ++row.n;
}

/// Prints the row and records it as leo_bench_gait_<key>_* values.
void report_row(const Row& row, Report& report) {
  const double falls_pct = 100.0 * static_cast<double>(row.with_falls) /
                           static_cast<double>(row.n);
  std::printf("  %-26s n=%4zu  quality mean %.2f (min %.2f)  dist mean "
              "%+.3f m  falls in %3.0f %% of runs\n",
              row.population, row.n, row.quality.mean(), row.quality.min(),
              row.distance.mean(), falls_pct);
  const std::string prefix = std::string("leo_bench_gait_") + row.key;
  report.exact[prefix + "_quality_mean"] = row.quality.mean();
  report.exact[prefix + "_distance_mean"] = row.distance.mean();
  report.exact[prefix + "_falls_pct"] = falls_pct;
}

genome::GaitGenome random_rule_optimum(util::Xoshiro256& rng) {
  for (;;) {
    genome::GaitGenome g =
        genome::GaitGenome::from_bits(rng.next_u64() & genome::kGenomeMask);
    for (std::size_t leg = 0; leg < 6; ++leg) {
      g.gene(0, leg).lift_first = g.gene(0, leg).forward;
      g.gene(1, leg).forward = !g.gene(0, leg).forward;
      g.gene(1, leg).lift_first = g.gene(1, leg).forward;
    }
    if (fitness::is_max_fitness(g.to_bits())) return g;
  }
}

}  // namespace

int bench_run(const Options& options, Report& report) {
  const std::uint64_t evolved_n = options.iters ? options.iters : 50;

  std::printf("E4 — walk quality on the quasi-static Leonardo model "
              "(10 cycles, ideal %.3f m)\n\n", 19 * 0.04);

  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());

  std::printf("reference gaits:\n");
  for (const auto& [name, g] :
       std::initializer_list<std::pair<const char*, genome::GaitGenome>>{
           {"tripod", genome::tripod_gait()},
           {"tripod (mirrored)", genome::tripod_gait_mirrored()},
           {"reverse tripod", genome::reverse_tripod_gait()},
           {"all-zero", genome::all_zero_gait()},
           {"pronking", genome::pronking_gait()},
           {"one side lifted", genome::one_side_lifted_gait()}}) {
    const robot::WalkMetrics m = walker.walk(g, 10);
    std::printf("  %-26s fitness %2u/60  dist %+.3f m  falls %2u  "
                "stumbles %2u  quality %.2f\n",
                name, fitness::score(g), m.distance_forward_m, m.falls,
                m.stumbles, m.quality(walker.ideal_distance(10)));
  }

  std::printf("\npopulations:\n");
  util::Xoshiro256 rng(2026);

  Row random_row{"random", "uniform random genomes"};
  for (int i = 0; i < 300; ++i) {
    add_walk(random_row, walker,
             genome::GaitGenome::from_bits(rng.next_u64() &
                                           genome::kGenomeMask));
  }
  report_row(random_row, report);

  Row optimum_row{"rule_optima", "uniform rule optima (R1-R3)"};
  for (int i = 0; i < 300; ++i) {
    add_walk(optimum_row, walker, random_rule_optimum(rng));
  }
  report_row(optimum_row, report);

  Row evolved_row{"evolved", "GA-evolved (paper rules)"};
  Row evolved_r4{"evolved_r4", "GA-evolved (+R4 support)"};
  std::array<std::size_t, 5> class_counts{};
  for (std::uint64_t s = 0; s < evolved_n; ++s) {
    core::EvolutionConfig c;
    c.seed = 5000 + s;
    const core::EvolutionResult r = core::evolve(c);
    if (r.reached_target) {
      const genome::GaitGenome g =
          genome::GaitGenome::from_bits(r.best_genome);
      add_walk(evolved_row, walker, g);
      ++class_counts[static_cast<std::size_t>(genome::analyze(g).cls)];
    }
    c.spec.use_support = true;
    const core::EvolutionResult r4 = core::evolve(c);
    if (r4.reached_target) {
      add_walk(evolved_r4, walker,
               genome::GaitGenome::from_bits(r4.best_genome));
    }
  }
  report_row(evolved_row, report);
  report_row(evolved_r4, report);

  std::printf("\ngait classes among the GA-evolved (paper rules) optima:\n");
  for (std::size_t c = 0; c < class_counts.size(); ++c) {
    if (class_counts[c] == 0) continue;
    std::printf("  %-12s %zu\n",
                genome::to_string(static_cast<genome::GaitClass>(c)),
                class_counts[c]);
  }

  std::printf("\npaper's claims, checked:\n");
  std::printf("  'max fitness != best walk'        : %s (tripod 1.00 vs "
              "evolved mean %.2f)\n",
              evolved_row.quality.mean() < 0.999 ? "REPRODUCED" : "not seen",
              evolved_row.quality.mean());
  std::printf("  'max-fitness walk nonetheless good': evolved mean quality "
              "%.2f vs random %.2f — %s\n",
              evolved_row.quality.mean(), random_row.quality.mean(),
              evolved_row.quality.mean() > 3.0 * random_row.quality.mean()
                  ? "REPRODUCED"
                  : "not met");
  std::printf("  extension: adding the R4 support rule lifts mean quality "
              "to %.2f\n", evolved_r4.quality.mean());

  report.exact["leo_bench_gait_evolved_seeds"] = static_cast<double>(evolved_n);
  return 0;
}

}  // namespace leo::bench
