// engine.hpp — the generational GA loop.
//
// Operator order follows the paper exactly (§3.2): "From the initial
// population the fitness operator is applied, then selection, then
// crossover, and finally mutation." Selection+crossover write into an
// intermediate population (the GAP's second RAM); mutation runs over the
// intermediate population, which then becomes the next basis population.
// Like the GAP's two RAMs, the two populations are fixed buffers swapped
// each generation: a running engine allocates nothing per generation.
//
// Genomes are the paper's 36-bit gait genomes packed in u64 words (see
// ga/individual.hpp); GaParams carries the paper's defaults. Like the
// GAP's fitness module, the fitness is fixed: fitness::score() under the
// engine's fitness::FitnessSpec, whose rule weights are its only
// parameters, and a run stops at that spec's max_score(). Like the GAP,
// the engine has no elitism: the best individual survives only through
// selection.
//
// Like the GAP's fixed datapath, the loop has no dispatch per draw or per
// pair: the engine draws from util::Xoshiro256 (inline draws) and holds
// the paper's three operators — TournamentSelection, SinglePointCrossover,
// ExactCountMutation — as plain members, so every operator call inlines.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fitness/rules.hpp"
#include "ga/crossover.hpp"
#include "ga/individual.hpp"
#include "ga/mutation.hpp"
#include "ga/selection.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace leo::ga {

/// Parameters of §3.3 ("The different parameters used for the GAP").
struct GaParams {
  std::size_t population_size = 32;
  util::Prob8 selection_threshold = util::Prob8::from_double(0.8);
  util::Prob8 crossover_threshold = util::Prob8::from_double(0.7);
  unsigned mutations_per_generation = 15;
};

/// Per-generation progress snapshot.
struct GenerationStats {
  std::uint64_t generation = 0;
  unsigned best_fitness = 0;
  unsigned worst_fitness = 0;
  double mean_fitness = 0.0;
  unsigned best_ever_fitness = 0;
  /// Population diversity (mean pairwise Hamming distance); recorded only
  /// when history tracking is on.
  double diversity = 0.0;
};

/// Complete mid-run engine state. Owning it outside the engine is what
/// makes evolutions suspendable: together with the RNG state it is
/// everything needed to continue a run bit-for-bit, so the serve layer can
/// checkpoint it to disk and resume later.
struct EngineState {
  Population population;
  Individual best;                 ///< best individual ever seen
  std::uint64_t generation = 0;    ///< generations executed so far
  std::uint64_t evaluations = 0;   ///< fitness evaluations so far
  std::vector<GenerationStats> history;  ///< filled when tracking history
};

/// Called after each completed generation with its statistics. Returning
/// false stops the run at this generation boundary (cooperative
/// cancellation / checkpoint hook); the EngineState stays valid and
/// run_from() can be called again to continue.
using StepCallback = std::function<bool(const GenerationStats&)>;

class GaEngine {
 public:
  /// Runs the paper's operators: tournament(selection_threshold),
  /// single-point crossover, exact-count(mutations_per_generation)
  /// mutation, scoring every genome with fitness::score(genome, spec).
  /// `track_history` stores one GenerationStats per generation in the
  /// EngineState. Throws std::invalid_argument for an odd or < 2
  /// population.
  GaEngine(GaParams params, fitness::FitnessSpec spec,
           bool track_history = false);

  /// Creates and evaluates the initial population (generation 0).
  EngineState start(util::Xoshiro256& rng);

  /// Advances `state` until spec.max_score() is reached, `max_generations`
  /// total generations elapse (an absolute count including generations
  /// already in `state`), or `on_generation` returns false; returns whether
  /// the target was reached. Resuming a stopped state with the same rng
  /// stream continues the identical run. Telemetry is flushed once on
  /// return: the ga counters grow by this call's generations and
  /// evaluations (start() counts generation 0's).
  bool run_from(EngineState& state, util::Xoshiro256& rng,
                std::uint64_t max_generations,
                const StepCallback& on_generation = {});

  /// One generation on an explicit population of params().population_size
  /// individuals (exposed for testing and for lock-step comparison against
  /// the hardware GAP). The next generation is built in an engine-owned
  /// buffer and swapped into `pop`. Strong guarantee: if it throws (a
  /// size mismatch, or a genome with a bit above genome::kGenomeMask
  /// reaching crossover), `pop` and `rng` keep their values from before
  /// the call.
  void step_generation(Population& pop, util::Xoshiro256& rng);

  /// Random initial population, evaluated: one next_u64() per individual,
  /// masked to the 36-bit genome.
  Population make_initial_population(util::Xoshiro256& rng) const;

  [[nodiscard]] const GaParams& params() const noexcept { return params_; }

 private:
  void evaluate(Population& pop) const;

  GaParams params_;
  fitness::FitnessSpec spec_;
  bool track_history_;
  TournamentSelection selection_;
  SinglePointCrossover crossover_;
  ExactCountMutation mutation_;
  Population intermediate_;  ///< next generation, swapped into the basis
};

}  // namespace leo::ga
