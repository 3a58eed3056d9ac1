// evolution_engine.hpp — one front door for "evolve a gait".
//
// Two interchangeable backends:
//   kSoftware — ga::GaEngine with the paper's operators (fast; the
//               reference the hardware is validated against);
//   kHardware — the cycle-accurate gap::GapTop in the RTL simulator
//               (slower per run, but reports clock cycles and therefore
//               wall-clock time at the paper's 1 MHz).
//
// Both use the same fitness spec, so results are directly comparable.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "fitness/rules.hpp"
#include "ga/engine.hpp"
#include "gap/gap_params.hpp"
#include "rtl/simulator.hpp"
#include "util/rng.hpp"

namespace leo::core {

enum class Backend { kSoftware, kHardware };

struct EvolutionConfig {
  Backend backend = Backend::kSoftware;
  fitness::FitnessSpec spec{};
  ga::GaParams ga{};            ///< software backend parameters
  /// Hardware backend parameters. evolve() ignores gap.target_fitness
  /// and runs to spec.max_score(), as the software backend does.
  gap::GapParams gap{};
  std::uint64_t seed = 1;
  std::uint64_t max_generations = 100'000;
  bool track_history = false;   ///< software backend only
  /// Hardware backend: settle kernel for the RTL simulation. Results are
  /// bit-identical across modes (only wall-clock speed differs).
  rtl::SimMode sim_mode = rtl::SimMode::kLevel;
};

struct EvolutionResult {
  bool reached_target = false;
  std::uint64_t generations = 0;
  std::uint64_t best_genome = 0;
  unsigned best_fitness = 0;
  std::uint64_t evaluations = 0;       ///< fitness evaluations (SW) / pop*gen (HW)
  std::uint64_t clock_cycles = 0;      ///< HW backend: simulated cycles
  double seconds_at_1mhz = 0.0;        ///< HW backend: paper wall clock
  /// HW backend (0 for software runs): module evaluate() calls of the run's
  /// rtl::Simulator, Simulator::evaluations().
  std::uint64_t rtl_evaluations = 0;
  /// HW backend: registers the simulator committed, Simulator::commits().
  std::uint64_t rtl_commits = 0;
  /// HW backend: cycles the GAP spent in its SEL+XOVER phase,
  /// GapTop::cycles_in_selxover().
  std::uint64_t selxover_cycles = 0;
  std::vector<ga::GenerationStats> history;
};

/// Cooperative controls threaded into a running evolution. All hooks are
/// polled at generation boundaries (software backend) or every few hundred
/// simulated cycles (hardware backend), so stopping is prompt but never
/// preemptive — the run state stays consistent and resumable.
struct RunControl {
  /// Absolute generation ceiling for this run (0 = no budget). Acts as a
  /// per-job deadline: the run stops once this many total generations
  /// have been scored, even if the target fitness has not been reached
  /// (the hardware backend checks it every cycle).
  std::uint64_t generation_budget = 0;
  /// Polled between generations; returning true stops the run early.
  std::function<bool()> should_stop;
  /// Progress reporting: called with (generation, best-ever fitness).
  std::function<void(std::uint64_t, unsigned)> on_progress;
};

/// Runs one evolution to the spec's maximum fitness, spec.max_score(), on
/// either backend, or until `control` or config.max_generations stops it.
/// Deterministic in (config.seed, config contents).
[[nodiscard]] EvolutionResult evolve(const EvolutionConfig& config,
                                     const RunControl& control = {});

/// A suspendable software-backend evolution. Unlike the fire-and-forget
/// evolve(), the engine state (population, best, counters) and the RNG
/// live in the session object between run() calls, so a run can be
/// stopped at any generation boundary, serialized (serve::Snapshot), and
/// later resumed bit-for-bit: an interrupted-and-resumed run produces an
/// EvolutionResult identical to an uninterrupted one.
class EvolutionSession {
 public:
  /// Fresh run. Throws std::invalid_argument unless config.backend is
  /// kSoftware (the RTL simulator's state is not serializable).
  explicit EvolutionSession(const EvolutionConfig& config);

  /// Resumes from previously captured engine + RNG state (a checkpoint).
  /// The state must have been produced by a session with an identical
  /// config; `state.population.size()` is validated against the config.
  EvolutionSession(const EvolutionConfig& config, ga::EngineState state,
                   const util::Xoshiro256::State& rng_state);

  /// Advances the run until the target is reached, config.max_generations
  /// (or control.generation_budget) elapse, or control stops it. Returns
  /// the cumulative result so far; call again to continue.
  EvolutionResult run(const RunControl& control = {});

  [[nodiscard]] const EvolutionConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const ga::EngineState& state() const noexcept {
    return state_;
  }
  [[nodiscard]] util::Xoshiro256::State rng_state() const noexcept {
    return rng_.state();
  }

 private:
  EvolutionConfig config_;
  ga::GaEngine engine_;
  util::Xoshiro256 rng_;
  ga::EngineState state_;
};

}  // namespace leo::core
