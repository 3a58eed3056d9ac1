// trials.hpp — repeated-trial harness for the benches, on the service.
//
// The paper's numbers are averages over runs ("an average of about 2000
// generations"), so every experiment is N independent trials with
// per-trial seeds derived from a base seed. Trials ride submit_batch():
// one batch per trial set, so the bench suite exercises the same
// admission/coalescing/caching path as the serve CLI; results are
// deterministic in (base_seed, n) regardless of scheduling (each trial's
// RNG depends only on its own seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evolution_engine.hpp"
#include "util/stats.hpp"

namespace leo::serve {

class EvolutionService;

struct TrialSummary {
  std::size_t trials = 0;
  std::size_t reached_target = 0;
  util::RunningStats generations;           ///< over successful trials
  util::RunningStats evaluations;
  util::RunningStats clock_cycles;          ///< hardware backend only
  std::vector<core::EvolutionResult> runs;  ///< per-trial detail, seed order
};

/// Runs `n` trials of `config` with seeds base_seed, base_seed+1, ... on a
/// fresh service. `threads` = 0 uses all cores.
[[nodiscard]] TrialSummary run_trials(const core::EvolutionConfig& config,
                                      std::size_t n, std::uint64_t base_seed,
                                      std::size_t threads = 0);

/// As above, submitting through an existing service — sweeps that share a
/// service share its deterministic result cache across calls.
[[nodiscard]] TrialSummary run_trials_on(EvolutionService& service,
                                         const core::EvolutionConfig& config,
                                         std::size_t n,
                                         std::uint64_t base_seed);

/// Formats a one-line summary ("24/24 trials reached the target;
/// generations mean=68.6 se=9.8 sd=48 min=14 max=220 ...") for bench
/// output; the generations are over the trials that reached the target.
[[nodiscard]] std::string describe(const TrialSummary& summary);

}  // namespace leo::serve
