// quickstart — evolve a walking gait from scratch and watch it walk.
//
// This is the paper's whole pipeline in one page: a genetic algorithm
// with Discipulus Simplex's parameters (population 32, tournament 0.8,
// single-point crossover 0.7, 15 mutations/generation) evolves a 36-bit
// gait genome against the three physics rules, and the resulting gait is
// executed on the Leonardo robot model.
//
//   ./quickstart [seed]
#include <cstdio>

#include "core/evolution_engine.hpp"
#include "example_args.hpp"
#include "genome/gait_genome.hpp"
#include "robot/walker.hpp"

int main(int argc, char** argv) {
  using namespace leo;

  core::EvolutionConfig config;
  config.backend = core::Backend::kSoftware;
  config.seed = 2026;
  if (argc > 1 && !examples::parse_number(argv[1], config.seed)) {
    return examples::usage("quickstart [seed]");
  }
  config.track_history = true;

  std::printf("Evolving a gait (population %zu, genome %zu bits, "
              "selection %.2f, crossover %.2f, %u mutations/gen)...\n",
              config.ga.population_size, genome::kGenomeBits,
              config.ga.selection_threshold.value(),
              config.ga.crossover_threshold.value(),
              config.ga.mutations_per_generation);

  const core::EvolutionResult result = core::evolve(config);
  if (!result.reached_target) {
    std::printf("did not reach maximum fitness within the budget\n");
    return 1;
  }

  std::printf("\nreached maximum fitness %u/%u in %llu generations "
              "(%llu evaluations)\n",
              result.best_fitness, config.spec.max_score(),
              static_cast<unsigned long long>(result.generations),
              static_cast<unsigned long long>(result.evaluations));

  // Show a few milestones of the run.
  std::printf("\n gen   best   mean\n");
  const auto& hist = result.history;
  for (std::size_t i = 0; i < hist.size();
       i += std::max<std::size_t>(1, hist.size() / 8)) {
    std::printf("%4llu   %4u   %5.1f\n",
                static_cast<unsigned long long>(hist[i].generation),
                hist[i].best_fitness, hist[i].mean_fitness);
  }

  const genome::GaitGenome best =
      genome::GaitGenome::from_bits(result.best_genome);
  std::printf("\nevolved genome: %s\n",
              best.to_hex().c_str());
  std::printf("\n%s\n", best.diagram().c_str());

  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  const robot::WalkMetrics m = walker.walk(best, 10);
  std::printf("walked 10 gait cycles: %.3f m forward (ideal %.3f m), "
              "%u falls, %u stumbles, quality %.2f\n",
              m.distance_forward_m, walker.ideal_distance(10), m.falls,
              m.stumbles, m.quality(walker.ideal_distance(10)));
  return 0;
}
