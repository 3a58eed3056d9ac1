#include "core/evolution_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "gap/gap_top.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rtl/simulator.hpp"
#include "util/rng.hpp"

namespace leo::core {

namespace {

/// Publishes a finished hardware run's pipeline breakdown. The GAP's own
/// per-phase cycle registers are the source of truth; occupancy is the
/// share of total cycles each phase kept the datapath busy.
void record_gap_run(const gap::GapTop& top, std::uint64_t total_cycles) {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  reg.counter("leo_gap_runs_total").inc();
  reg.counter("leo_gap_generations_total").inc(top.generation());
  reg.gauge("leo_gap_eval_cycles").set(static_cast<double>(top.cycles_in_eval()));
  reg.gauge("leo_gap_selxover_cycles")
      .set(static_cast<double>(top.cycles_in_selxover()));
  reg.gauge("leo_gap_mutate_cycles")
      .set(static_cast<double>(top.cycles_in_mutate()));
  if (total_cycles > 0) {
    const double total = static_cast<double>(total_cycles);
    reg.gauge("leo_gap_pipeline_occupancy")
        .set(static_cast<double>(top.cycles_in_eval() +
                                 top.cycles_in_selxover() +
                                 top.cycles_in_mutate()) /
             total);
  }
}

ga::GaEngine make_engine(const EvolutionConfig& config) {
  const fitness::FitnessSpec spec = config.spec;
  return ga::GaEngine(config.ga, [spec](std::uint64_t g) {
    return fitness::score(g, spec);
  });
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
  gap::GapTop top(nullptr, "gap", params, config.seed, config.spec);
  rtl::Simulator sim(top, config.sim_mode);

  const std::uint64_t gen_limit = generation_limit(config, control);
  // Generous per-generation bound: init + eval + sel/xover + mutation with
  // stalls never exceeds ~40 cycles per individual.
  const std::uint64_t max_cycles =
      (gen_limit + 2) * params.population_size * 40;
  auto done = [&] { return top.done.read(); };

  if (!control.should_stop && !control.on_progress) {
    sim.run_until(done, max_cycles);
  } else {
    // Run in sub-generation slices so cancellation and progress hooks are
    // serviced promptly. Slicing does not perturb the simulation: the done
    // predicate is still checked every cycle, so the stop cycle — and
    // therefore every reported number — matches the unsliced run.
    const std::uint64_t slice =
        std::max<std::uint64_t>(std::uint64_t{params.population_size} * 4, 64);
    std::uint64_t last_gen = ~std::uint64_t{0};
    while (sim.cycles() < max_cycles) {
      const std::uint64_t budget = max_cycles - sim.cycles();
      if (sim.run_until(done, std::min(slice, budget))) break;
      if (control.on_progress && top.generation() != last_gen) {
        last_gen = top.generation();
        control.on_progress(last_gen, top.best_fitness());
      }
      if (control.should_stop && control.should_stop()) break;
    }
  }

  record_gap_run(top, sim.cycles());

  EvolutionResult result;
  result.reached_target = top.done.read();
  result.generations = top.generation();
  result.best_genome = top.best_genome();
  result.best_fitness = top.best_fitness();
  result.evaluations = (top.generation() + 1) * params.population_size;
  result.clock_cycles = sim.cycles();
  result.seconds_at_1mhz = sim.seconds_at(gap::kGapClockHz);
  return result;
}

}  // namespace

EvolutionSession::EvolutionSession(const EvolutionConfig& config)
    : config_(config), engine_(make_engine(config)), rng_(config.seed) {
  if (config.backend != Backend::kSoftware) {
    throw std::invalid_argument(
        "EvolutionSession: only the software backend is suspendable");
  }
  state_ = engine_.start(rng_, config_.track_history);
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
  obs::TraceSpan span("leo_core_session_run");
  if (obs::enabled()) {
    obs::registry().counter("leo_core_session_runs_total").inc();
  }
  ga::StepCallback on_generation;
  if (control.should_stop || control.on_progress) {
    on_generation = [&control](const ga::GenerationStats& gs) {
      if (control.on_progress) {
        control.on_progress(gs.generation, gs.best_ever_fitness);
      }
      return !(control.should_stop && control.should_stop());
    };
  }

  const ga::RunResult run = engine_.run_from(
      state_, rng_, generation_limit(config_, control),
      config_.spec.max_score(), config_.track_history, on_generation);

  EvolutionResult result;
  result.reached_target = run.reached_target;
  result.generations = run.generations;
  result.best_genome = run.best.genome.to_u64();
  result.best_fitness = run.best.fitness;
  result.evaluations = run.evaluations;
  result.history = run.history;
  return result;
}

EvolutionResult evolve(const EvolutionConfig& config,
                       const RunControl& control) {
  if (config.backend == Backend::kSoftware) {
    return EvolutionSession(config).run(control);
  }
  return evolve_hardware(config, control);
}

EvolutionResult evolve(const EvolutionConfig& config) {
  return evolve(config, RunControl{});
}

}  // namespace leo::core
