#include "ga/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "ga/diversity.hpp"
#include "genome/gait_genome.hpp"
#include "obs/metrics.hpp"

namespace leo::ga {

namespace {

/// Registry instruments, resolved once per process. The engine flushes
/// them once per start()/run_from(), never per generation. Telemetry never
/// draws from the run's RNG or alters operator order: an instrumented run
/// evolves the bit-identical best genome of an uninstrumented one.
struct GaMetrics {
  obs::Counter& generations = obs::registry().counter("leo_ga_generations_total");
  obs::Counter& evaluations = obs::registry().counter("leo_ga_evaluations_total");
  obs::Counter& runs = obs::registry().counter("leo_ga_runs_total");

  static GaMetrics& get() {
    static GaMetrics instance;
    return instance;
  }
};

/// Best/worst/mean fitness of `pop` (non-empty).
GenerationStats population_stats(const Population& pop,
                                 std::uint64_t generation) {
  GenerationStats gs;
  gs.generation = generation;
  gs.worst_fitness = pop.front().fitness;
  // An integer sum divided once is bit-identical to summing doubles:
  // every partial sum is an integer below 2^53.
  std::uint64_t sum = 0;
  for (const auto& ind : pop) {
    gs.best_fitness = std::max(gs.best_fitness, ind.fitness);
    gs.worst_fitness = std::min(gs.worst_fitness, ind.fitness);
    sum += ind.fitness;
  }
  gs.mean_fitness = static_cast<double>(sum) / static_cast<double>(pop.size());
  return gs;
}

/// Scans the population, updates state.best, and returns this
/// generation's statistics (appending to state.history when tracking).
GenerationStats observe(EngineState& state, std::uint64_t generation,
                        bool track_history) {
  const Population& pop = state.population;
  GenerationStats gs = population_stats(pop, generation);
  for (const auto& ind : pop) {
    if (ind.fitness > state.best.fitness) state.best = ind;
  }
  gs.best_ever_fitness = state.best.fitness;
  if (track_history) {
    gs.diversity = mean_pairwise_hamming(pop);
    state.history.push_back(gs);
  }
  return gs;
}

}  // namespace

GaEngine::GaEngine(GaParams params, fitness::FitnessSpec spec,
                   bool track_history)
    : params_(params),
      spec_(spec),
      track_history_(track_history),
      selection_(params.selection_threshold),
      mutation_(params.mutations_per_generation) {
  if (params_.population_size < 2 || params_.population_size % 2 != 0) {
    throw std::invalid_argument("GaEngine: population size must be even, >= 2");
  }
}

void GaEngine::evaluate(Population& pop) const {
  for (auto& ind : pop) ind.fitness = fitness::score(ind.genome.bits, spec_);
}

Population GaEngine::make_initial_population(util::Xoshiro256& rng) const {
  Population pop(params_.population_size);
  for (auto& ind : pop) {
    ind.genome.bits = rng.next_u64() & genome::kGenomeMask;
  }
  evaluate(pop);
  return pop;
}

void GaEngine::step_generation(Population& pop, util::Xoshiro256& rng) {
  if (pop.size() != params_.population_size) {
    throw std::invalid_argument("step_generation: population size mismatch");
  }
  // Draws come from a local copy, written back once after the swap. Its
  // address never escapes, so it stays in registers that stores into the
  // populations cannot alias, and a throw leaves `rng` untouched.
  util::Xoshiro256 gen = rng;
  // Selection + crossover into the intermediate population (paper's
  // pipelined pair of operators writing the second RAM).
  intermediate_.resize(pop.size());
  for (std::size_t i = 0; i < pop.size(); i += 2) {
    const std::size_t pa = selection_.select(pop, gen);
    const std::size_t pb = selection_.select(pop, gen);
    GenomePair children{pop[pa].genome.bits, pop[pb].genome.bits};
    if (gen.next_bool_p8(params_.crossover_threshold.raw())) {
      children = crossover_.apply(children.first, children.second, gen);
    }
    intermediate_[i].genome.bits = children.first;
    intermediate_[i + 1].genome.bits = children.second;
  }

  mutation_.apply(intermediate_, gen);

  // The intermediate population becomes the basis population; the old
  // basis buffer is reused as the next generation's intermediate.
  pop.swap(intermediate_);
  rng = gen;
  evaluate(pop);
}

EngineState GaEngine::start(util::Xoshiro256& rng) {
  EngineState state;
  state.population = make_initial_population(rng);
  state.best = state.population.front();
  state.evaluations = state.population.size();
  observe(state, 0, track_history_);
  if (obs::enabled()) GaMetrics::get().evaluations.inc(state.evaluations);
  return state;
}

bool GaEngine::run_from(EngineState& state, util::Xoshiro256& rng,
                        std::uint64_t max_generations,
                        const StepCallback& on_generation) {
  const std::uint64_t first_generation = state.generation;
  const std::uint64_t first_evaluations = state.evaluations;
  const unsigned target = spec_.max_score();

  bool reached = state.best.fitness >= target;
  for (std::uint64_t gen = state.generation + 1;
       !reached && gen <= max_generations; ++gen) {
    step_generation(state.population, rng);
    const GenerationStats gs = observe(state, gen, track_history_);
    state.generation = gen;
    state.evaluations += state.population.size();
    reached = state.best.fitness >= target;
    if (!reached && on_generation && !on_generation(gs)) break;
  }

  if (obs::enabled()) {
    GaMetrics& m = GaMetrics::get();
    m.runs.inc();
    m.generations.inc(state.generation - first_generation);
    m.evaluations.inc(state.evaluations - first_evaluations);
  }
  return reached;
}

}  // namespace leo::ga
