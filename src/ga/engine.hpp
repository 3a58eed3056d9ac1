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
// GAP, the engine has no elitism: the best individual survives only
// through selection.
//
// Like the GAP's fixed datapath, the loop has no dispatch per draw or per
// pair: the engine draws from util::Xoshiro256 (inline draws) and holds
// the paper's three operators — TournamentSelection, SinglePointCrossover,
// ExactCountMutation — as plain members, so every operator call inlines.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

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

/// Outcome of a run.
struct RunResult {
  bool reached_target = false;
  std::uint64_t generations = 0;   ///< generations executed
  std::uint64_t evaluations = 0;   ///< fitness evaluations performed
  Individual best;                 ///< best individual ever seen
  std::vector<GenerationStats> history;  ///< filled if params.track_history
};

/// Complete mid-run engine state. Owning it externally (rather than inside
/// run()) is what makes evolutions suspendable: together with the RNG state
/// it is everything needed to continue a run bit-for-bit, so the serve
/// layer can checkpoint it to disk and resume later.
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
  /// mutation. Throws std::invalid_argument for an odd or < 2 population
  /// or an empty fitness function.
  GaEngine(GaParams params, FitnessFn fitness);

  /// Runs until `target_fitness` is reached (if set) or `max_generations`
  /// elapse. `track_history` stores one GenerationStats per generation.
  /// Equivalent to start() followed by run_from().
  RunResult run(util::Xoshiro256& rng, std::uint64_t max_generations,
                std::optional<unsigned> target_fitness,
                bool track_history = false);

  /// Creates and evaluates the initial population (generation 0), drawing
  /// from `rng` exactly as run() does.
  EngineState start(util::Xoshiro256& rng, bool track_history = false);

  /// Advances `state` until the target is reached, `max_generations` total
  /// generations elapse (an absolute count including generations already in
  /// `state`), or `on_generation` returns false. Resuming a stopped state
  /// with the same rng stream continues the identical run. Telemetry is
  /// flushed once on return: the ga counters grow by this call's
  /// generations and evaluations (start() counts generation 0's).
  RunResult run_from(EngineState& state, util::Xoshiro256& rng,
                     std::uint64_t max_generations,
                     std::optional<unsigned> target_fitness,
                     bool track_history = false,
                     const StepCallback& on_generation = {});

  /// One generation on an explicit population of params().population_size
  /// individuals (exposed for testing and for lock-step comparison against
  /// the hardware GAP). The next generation is built in an engine-owned
  /// buffer and swapped into `pop`.
  void step_generation(Population& pop, util::Xoshiro256& rng);

  /// Random initial population, evaluated: one next_u64() per individual,
  /// masked to the 36-bit genome.
  Population make_initial_population(util::Xoshiro256& rng) const;

  [[nodiscard]] const GaParams& params() const noexcept { return params_; }

 private:
  void evaluate(Population& pop) const;

  GaParams params_;
  FitnessFn fitness_;
  TournamentSelection selection_;
  SinglePointCrossover crossover_;
  ExactCountMutation mutation_;
  Population intermediate_;  ///< next generation, swapped into the basis
};

}  // namespace leo::ga
