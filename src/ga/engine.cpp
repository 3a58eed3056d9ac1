#include "ga/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "ga/diversity.hpp"
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
  obs::Gauge& generation = obs::registry().gauge("leo_ga_generation");
  obs::Gauge& best = obs::registry().gauge("leo_ga_best_fitness");
  obs::Gauge& mean = obs::registry().gauge("leo_ga_mean_fitness");
  obs::Gauge& worst = obs::registry().gauge("leo_ga_worst_fitness");
  obs::Gauge& best_ever = obs::registry().gauge("leo_ga_best_ever_fitness");
  obs::Gauge& diversity = obs::registry().gauge("leo_ga_diversity");

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
  double sum = 0.0;
  for (const auto& ind : pop) {
    gs.best_fitness = std::max(gs.best_fitness, ind.fitness);
    gs.worst_fitness = std::min(gs.worst_fitness, ind.fitness);
    sum += static_cast<double>(ind.fitness);
  }
  gs.mean_fitness = sum / static_cast<double>(pop.size());
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

GaEngine::GaEngine(GaParams params, FitnessFn fitness)
    : params_(params),
      fitness_(std::move(fitness)),
      selection_(params.selection_threshold),
      mutation_(params.mutations_per_generation) {
  if (params_.population_size < 2 || params_.population_size % 2 != 0) {
    throw std::invalid_argument("GaEngine: population size must be even, >= 2");
  }
  if (params_.genome_bits < 2 || params_.genome_bits > kMaxGenomeBits) {
    throw std::invalid_argument("GaEngine: genome_bits must be in [2, 64]");
  }
  if (!fitness_) {
    throw std::invalid_argument("GaEngine: fitness function required");
  }
  mask_ = genome_mask(params_.genome_bits);
}

void GaEngine::evaluate(Population& pop) const {
  for (auto& ind : pop) ind.fitness = fitness_(ind.genome.bits);
}

Population GaEngine::make_initial_population(util::Xoshiro256& rng) const {
  Population pop(params_.population_size);
  for (auto& ind : pop) ind.genome.bits = rng.next_u64() & mask_;
  evaluate(pop);
  return pop;
}

void GaEngine::step_generation(Population& pop, util::Xoshiro256& rng) {
  if (pop.size() != params_.population_size) {
    throw std::invalid_argument("step_generation: population size mismatch");
  }
  const std::size_t width = params_.genome_bits;
  // Selection + crossover into the intermediate population (paper's
  // pipelined pair of operators writing the second RAM).
  intermediate_.resize(pop.size());
  for (std::size_t i = 0; i < pop.size(); i += 2) {
    const std::size_t pa = selection_.select(pop, rng);
    const std::size_t pb = selection_.select(pop, rng);
    GenomePair children{pop[pa].genome.bits, pop[pb].genome.bits};
    if (rng.next_bool_p8(params_.crossover_threshold.raw())) {
      children = crossover_.apply(children.first, children.second, width, rng);
    }
    intermediate_[i].genome.bits = children.first;
    intermediate_[i + 1].genome.bits = children.second;
  }

  mutation_.apply(intermediate_, width, rng);

  if (params_.elitism) {
    // Preserve the best of the outgoing generation in slot 0.
    std::size_t best = 0;
    for (std::size_t i = 1; i < pop.size(); ++i) {
      if (pop[i].fitness > pop[best].fitness) best = i;
    }
    intermediate_[0] = pop[best];
  }

  // The intermediate population becomes the basis population; the old
  // basis buffer is reused as the next generation's intermediate.
  pop.swap(intermediate_);
  evaluate(pop);
}

EngineState GaEngine::start(util::Xoshiro256& rng, bool track_history) {
  EngineState state;
  state.population = make_initial_population(rng);
  state.best = state.population.front();
  state.evaluations = state.population.size();
  observe(state, 0, track_history);
  if (obs::enabled()) GaMetrics::get().evaluations.inc(state.evaluations);
  return state;
}

RunResult GaEngine::run_from(EngineState& state, util::Xoshiro256& rng,
                             std::uint64_t max_generations,
                             std::optional<unsigned> target_fitness,
                             bool track_history,
                             const StepCallback& on_generation) {
  const std::uint64_t first_generation = state.generation;
  const std::uint64_t first_evaluations = state.evaluations;
  auto reached = [&] {
    return target_fitness && state.best.fitness >= *target_fitness;
  };

  RunResult result;
  result.reached_target = reached();
  for (std::uint64_t gen = state.generation + 1;
       !result.reached_target && gen <= max_generations; ++gen) {
    step_generation(state.population, rng);
    const GenerationStats gs = observe(state, gen, track_history);
    state.generation = gen;
    state.evaluations += state.population.size();
    result.reached_target = reached();
    if (!result.reached_target && on_generation && !on_generation(gs)) break;
  }

  if (obs::enabled()) {
    GaMetrics& m = GaMetrics::get();
    m.runs.inc();
    m.generations.inc(state.generation - first_generation);
    m.evaluations.inc(state.evaluations - first_evaluations);
    const GenerationStats last =
        population_stats(state.population, state.generation);
    m.generation.set(static_cast<double>(state.generation));
    m.best.set(static_cast<double>(last.best_fitness));
    m.worst.set(static_cast<double>(last.worst_fitness));
    m.mean.set(last.mean_fitness);
    m.best_ever.set(static_cast<double>(state.best.fitness));
    if (track_history && !state.history.empty()) {
      m.diversity.set(state.history.back().diversity);
    }
  }

  result.generations = state.generation;
  result.evaluations = state.evaluations;
  result.best = state.best;
  result.history = state.history;
  return result;
}

RunResult GaEngine::run(util::Xoshiro256& rng, std::uint64_t max_generations,
                        std::optional<unsigned> target_fitness,
                        bool track_history) {
  EngineState state = start(rng, track_history);
  return run_from(state, rng, max_generations, target_fitness, track_history);
}

}  // namespace leo::ga
