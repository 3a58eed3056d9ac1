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
// Genomes are packed u64 words of GaParams::genome_bits (2..64) bits;
// GaParams carries the paper's defaults.
//
// Like the GAP's fixed datapath, the loop has no dispatch per draw or per
// pair: the engine draws from the concrete util::Xoshiro256, and its
// operators are values of the closed Selection/Crossover/Mutation
// variants, resolved by one std::visit per generation into a single
// templated loop body in which every operator call inlines.
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
  std::size_t genome_bits = 36;  ///< 2..64; GaEngine rejects other widths
  util::Prob8 selection_threshold = util::Prob8::from_double(0.8);
  util::Prob8 crossover_threshold = util::Prob8::from_double(0.7);
  unsigned mutations_per_generation = 15;
  /// If true, the best individual of each generation is copied unchanged
  /// into the next (not in the paper's GAP; used in ablations).
  bool elitism = false;
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
  /// Operators default to the paper's: tournament(selection_threshold),
  /// single-point crossover, exact-count mutation. Throws
  /// std::invalid_argument for an odd or < 2 population, genome_bits
  /// outside [2, 64], or an empty fitness function.
  GaEngine(GaParams params, FitnessFn fitness);

  /// Operator injection for ablation studies.
  void set_selection(Selection op) { selection_ = op; }
  void set_crossover(Crossover op) { crossover_ = op; }
  void set_mutation(Mutation op) { mutation_ = op; }

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
  /// generations and evaluations (start() counts generation 0's), and each
  /// gauge is set once from the final state.
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
  /// masked to genome_bits.
  Population make_initial_population(util::Xoshiro256& rng) const;

  [[nodiscard]] const GaParams& params() const noexcept { return params_; }

 private:
  void evaluate(Population& pop) const;
  /// step_generation()'s loop body for one operator combination.
  template <class Select, class Cross, class Mutate>
  void breed(Population& pop, util::Xoshiro256& rng, const Select& selection,
             const Cross& crossover, const Mutate& mutation);

  GaParams params_;
  FitnessFn fitness_;
  Selection selection_;
  Crossover crossover_;
  Mutation mutation_;
  std::uint64_t mask_ = 0;  ///< genome_mask(params_.genome_bits)
  Population intermediate_;  ///< next generation, swapped into the basis
};

}  // namespace leo::ga
