#include "core/evolution_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "gap/gap_top.hpp"
#include "obs/metrics.hpp"
#include "rtl/simulator.hpp"
#include "util/rng.hpp"

namespace leo::core {

namespace {

/// Counts a finished hardware run, through counters resolved once per
/// process. Its cycle counts belong to the job, not the process:
/// EvolutionResult::clock_cycles, and GapTop::cycles_in_*() per GA phase.
void record_gap_run(const gap::GapTop& top) {
  if (!obs::enabled()) return;
  static obs::Counter& runs = obs::registry().counter("leo_gap_runs_total");
  static obs::Counter& generations =
      obs::registry().counter("leo_gap_generations_total");
  runs.inc();
  generations.inc(top.generation());
}

ga::GaEngine make_engine(const EvolutionConfig& config) {
  return ga::GaEngine(config.ga, config.spec, config.track_history);
}

/// Effective generation ceiling: the config's limit, tightened by the
/// control's budget when one is set.
std::uint64_t generation_limit(const EvolutionConfig& config,
                               const RunControl& control) {
  return control.generation_budget
             ? std::min(config.max_generations, control.generation_budget)
             : config.max_generations;
}

EvolutionResult evolve_hardware(const EvolutionConfig& config,
                                const RunControl& control) {
  gap::GapParams params = config.gap;
  params.target_fitness = config.spec.max_score();
  gap::GapTop top(nullptr, "gap", params, config.seed,
                  gap::make_gait_fitness(config.spec));
  rtl::Simulator sim(top, config.sim_mode);

  // The run stops at the target or once generation `gen_limit` has been
  // scored (the GAP leaves EVAL for SEL+XOVER), as the software engine
  // does; the predicate is checked every cycle.
  const std::uint64_t gen_limit = generation_limit(config, control);
  auto done = [&] {
    return top.done.read() ||
           (top.generation() >= gen_limit &&
            top.phase() == gap::GapTop::Phase::kSelXover);
  };

  // Run in sub-generation slices so cancellation and progress hooks are
  // serviced promptly. Slicing does not perturb the simulation: the stop
  // predicate is still checked every cycle, so the stop cycle — and
  // therefore every reported number — matches one unsliced run_until().
  const std::uint64_t slice =
      std::max<std::uint64_t>(std::uint64_t{params.population_size} * 4, 64);
  std::uint64_t last_gen = ~std::uint64_t{0};
  while (!sim.run_until(done, slice)) {
    if (control.on_progress && top.generation() != last_gen) {
      last_gen = top.generation();
      control.on_progress(last_gen, top.best_fitness());
    }
    if (control.should_stop && control.should_stop()) break;
  }

  record_gap_run(top);

  EvolutionResult result;
  result.reached_target = top.done.read();
  result.generations = top.generation();
  result.best_genome = top.best_genome();
  result.best_fitness = top.best_fitness();
  result.evaluations = (top.generation() + 1) * params.population_size;
  result.clock_cycles = sim.cycles();
  result.seconds_at_1mhz = sim.seconds_at(gap::kGapClockHz);
  result.rtl_evaluations = sim.evaluations();
  result.rtl_commits = sim.commits();
  result.selxover_cycles = top.cycles_in_selxover();
  return result;
}

}  // namespace

EvolutionSession::EvolutionSession(const EvolutionConfig& config)
    : config_(config), engine_(make_engine(config)), rng_(config.seed) {
  if (config.backend != Backend::kSoftware) {
    throw std::invalid_argument(
        "EvolutionSession: only the software backend is suspendable");
  }
  state_ = engine_.start(rng_);
}

EvolutionSession::EvolutionSession(const EvolutionConfig& config,
                                   ga::EngineState state,
                                   const util::Xoshiro256::State& rng_state)
    : config_(config),
      engine_(make_engine(config)),
      rng_(config.seed),
      state_(std::move(state)) {
  if (config.backend != Backend::kSoftware) {
    throw std::invalid_argument(
        "EvolutionSession: only the software backend is suspendable");
  }
  if (state_.population.size() != config_.ga.population_size) {
    throw std::invalid_argument(
        "EvolutionSession: checkpoint population size does not match config");
  }
  rng_.set_state(rng_state);
}

EvolutionResult EvolutionSession::run(const RunControl& control) {
  ga::StepCallback on_generation;
  if (control.should_stop || control.on_progress) {
    on_generation = [&control](const ga::GenerationStats& gs) {
      if (control.on_progress) {
        control.on_progress(gs.generation, gs.best_ever_fitness);
      }
      return !(control.should_stop && control.should_stop());
    };
  }

  EvolutionResult result;
  result.reached_target = engine_.run_from(
      state_, rng_, generation_limit(config_, control), on_generation);
  result.generations = state_.generation;
  result.best_genome = state_.best.genome.to_u64();
  result.best_fitness = state_.best.fitness;
  result.evaluations = state_.evaluations;
  result.history = state_.history;
  return result;
}

EvolutionResult evolve(const EvolutionConfig& config,
                       const RunControl& control) {
  if (config.backend == Backend::kSoftware) {
    return EvolutionSession(config).run(control);
  }
  return evolve_hardware(config, control);
}

}  // namespace leo::core
