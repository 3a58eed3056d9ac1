// bench_serve_throughput — fleet-scale serve layer under load.
//
// Measures the EvolutionService scheduler itself, not the GA:
//
//   1. jobs/sec at saturation — one submit_batch() of short, unique-seed
//      evolutions (no caching, no coalescing) drained by every worker
//      thread; wall-clock from first admission to last terminal job.
//   2. coalesced-hit ratio — a batch of identical submissions, where
//      everything after the first execution must either attach to the
//      in-flight run or hit the result cache: the engine runs once and
//      the ratio approaches (N-1)/N.
//
//   ./bench_serve_throughput [--iters N]   # N*32 jobs per phase
//                                         # (default 256)
//
// Emits BENCH_serve.json (shared runner; see bench_harness.hpp): the job
// count and the hit ratio as exact leo_bench_serve_* values, and the
// thread count, elapsed time and jobs/sec as measured ones. The hit ratio
// is read from the coalescing batch's own record, its BatchProgress: how
// the followers split between coalesced and cached moves with the thread
// schedule, but their sum does not.
#include <chrono>
#include <cstdio>

#include "bench_harness.hpp"
#include "serve/scheduler.hpp"

namespace leo::bench {

const char* bench_name() { return "serve"; }

int bench_run(const Options& options, Report& report) {
  const std::uint64_t jobs = options.iters ? options.iters * 32 : 256;

  std::printf("serve throughput — %zu jobs per phase\n\n", jobs);

  serve::EvolutionService service;  // all hardware threads

  // Phase 1: scheduler throughput. Short evolutions that cannot converge
  // (no crossover, no mutation) so the measured cost is admission,
  // queueing and handle completion rather than GA convergence.
  core::EvolutionConfig stuck;
  stuck.backend = core::Backend::kSoftware;
  stuck.ga.mutations_per_generation = 0;
  stuck.ga.crossover_threshold = util::Prob8::from_double(0.0);
  std::vector<serve::BatchItem> unique(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    unique[i].config = stuck;
    unique[i].config.seed = 1000 + i;
    unique[i].options.use_cache = false;
    unique[i].options.generation_budget = 200;
  }

  const auto start = std::chrono::steady_clock::now();
  serve::BatchHandle burst = service.submit_batch(unique);
  burst.wait_all();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double jobs_per_sec = static_cast<double>(jobs) / elapsed;
  std::printf("saturation (%zu workers): %zu unique jobs in %.3f s = "
              "%.0f jobs/sec\n",
              service.threads(), jobs, elapsed, jobs_per_sec);

  // Phase 2: in-flight coalescing. Identical submissions race the cache;
  // exactly one engine execution should serve the whole fleet.
  core::EvolutionConfig identical;
  identical.backend = core::Backend::kSoftware;
  identical.seed = 7;
  std::vector<serve::BatchItem> same(jobs);
  for (auto& item : same) item.config = identical;
  serve::BatchHandle fleet = service.submit_batch(same);
  fleet.wait_all();

  const serve::BatchProgress reuse = fleet.progress();
  const double ratio = static_cast<double>(reuse.coalesced + reuse.from_cache) /
                       static_cast<double>(jobs);
  std::printf("coalescing (%zu identical jobs): %zu attached in flight, "
              "%zu cache hits -> hit ratio %.4f (ideal %.4f)\n",
              jobs, reuse.coalesced, reuse.from_cache, ratio,
              static_cast<double>(jobs - 1) / static_cast<double>(jobs));

  report.exact = {{"leo_bench_serve_jobs", static_cast<double>(jobs)},
                  {"leo_bench_serve_coalesced_hit_ratio", ratio}};
  report.measured = {
      {"leo_bench_serve_threads", static_cast<double>(service.threads())},
      {"leo_bench_serve_elapsed_seconds", elapsed},
      {"leo_bench_serve_jobs_per_sec", jobs_per_sec}};
  return 0;
}

}  // namespace leo::bench
