#include "serve/trials.hpp"

#include <sstream>

#include "serve/batch.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"

namespace leo::serve {

TrialSummary run_trials_on(EvolutionService& service,
                           const core::EvolutionConfig& config, std::size_t n,
                           std::uint64_t base_seed) {
  // One batch per trial set: the whole fleet rides submit_batch(), so
  // trials share the service's admission control and coalescing exactly
  // like any other client.
  std::vector<BatchItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].config = config;
    items[i].config.seed = base_seed + i;
  }
  BatchHandle batch = service.submit_batch(items);

  TrialSummary summary;
  summary.trials = n;
  summary.runs = batch.results();
  for (const auto& run : summary.runs) {
    if (!run.reached_target) continue;
    ++summary.reached_target;
    summary.generations.add(static_cast<double>(run.generations));
    summary.evaluations.add(static_cast<double>(run.evaluations));
    if (run.clock_cycles > 0) {
      summary.clock_cycles.add(static_cast<double>(run.clock_cycles));
    }
  }
  return summary;
}

TrialSummary run_trials(const core::EvolutionConfig& config, std::size_t n,
                        std::uint64_t base_seed, std::size_t threads) {
  EvolutionService service(threads);
  return run_trials_on(service, config, n, base_seed);
}

std::string describe(const TrialSummary& summary) {
  std::ostringstream out;
  out << summary.reached_target << "/" << summary.trials
      << " trials reached the target";
  if (summary.reached_target > 0) {
    out << "; generations mean=" << summary.generations.mean()
        << " se=" << util::standard_error(summary.generations)
        << " sd=" << summary.generations.stddev()
        << " min=" << summary.generations.min()
        << " max=" << summary.generations.max()
        << "; evaluations mean=" << summary.evaluations.mean();
    if (summary.clock_cycles.count() > 0) {
      out << "; cycles mean=" << summary.clock_cycles.mean() << " ("
          << summary.clock_cycles.mean() / 1.0e6 << " s at 1 MHz)";
    }
  }
  return out.str();
}

}  // namespace leo::serve
