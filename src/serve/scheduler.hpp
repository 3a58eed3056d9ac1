// scheduler.hpp — EvolutionService: evolutions as first-class async jobs.
//
// The paper's headline numbers are statistics over fleets of independent
// evolutions ("an average of about 2000 generations"), and every related
// workload — behavioural repertoires, controller-parameter sweeps — runs
// thousands of (config, seed) points. The service turns the blocking
// core::evolve() call into a job system:
//
//   * one FIFO queue drained by the service's worker threads, and by a
//     caller waiting on the job at its head, which runs that job itself
//     instead of sleeping while a worker runs it; jobs start in the order
//     they were admitted;
//   * job handles with status/progress polling and blocking wait(), and
//     batch handles (submit_batch) over whole sweeps;
//   * bounded admission with backpressure: a configurable max queue depth
//     past which submit() blocks or refuses the newcomer (AdmissionPolicy),
//     so a misbehaving client cannot grow the queue without bound;
//   * in-flight coalescing: a submission whose identical job (same
//     canonical config key, same generation budget, cache enabled) is
//     already queued or running attaches to that execution as a follower
//     instead of re-running it — legitimate for the same reason the
//     result cache is: evolve() is deterministic in (seed, config);
//   * cooperative cancellation and per-job generation budgets (deadlines),
//     threaded into ga::GaEngine and the RTL GAP loop via core::RunControl;
//   * snapshot/resume: a software job leaves one snapshot, the state it
//     stopped in (budget suspend, cancel or success), which resumes —
//     bit-identical to an uninterrupted run — in this service, another
//     service, or another process (serve::save_snapshot / load_snapshot);
//   * a deterministic, capacity-bounded LRU result cache keyed by
//     serve::config_key (see serve/cache.hpp).
//
// Every submission — submit(), submit_batch() and resume() — goes through
// one admission path (submit_one), and every queued job through one
// runner (run_job) that differs per backend only in how the run is driven
// and which state an early stop maps to. Workers and waiters take a job
// off the queue through one claim (claim_head). The workers are the only
// threads the service starts.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/evolution_engine.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "serve/checkpoint.hpp"
#include "serve/job.hpp"

namespace leo::serve {

/// What submit() does when the queue is at max_queue_depth.
enum class AdmissionPolicy : std::uint8_t {
  kBlock,  ///< block the submitter until a worker drains a slot
  kShed,   ///< return the incoming job already kRejected
};

struct ServiceOptions {
  /// Worker threads; 0 uses all hardware threads.
  std::size_t threads = 0;
  /// Max queued (not yet running) jobs; 0 = unbounded. Cache hits and
  /// coalesced followers never occupy a queue slot, so they are admitted
  /// even at capacity.
  std::size_t max_queue_depth = 0;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Result-cache entry cap (0 = unbounded).
  std::size_t cache_capacity = ResultCache::kDefaultCapacity;
};

class EvolutionService {
 public:
  /// `threads == 0` uses all hardware threads.
  explicit EvolutionService(std::size_t threads = 0);

  /// Full control: admission policy, queue bound, cache sizing.
  explicit EvolutionService(const ServiceOptions& options);

  /// Cancels every queued and running job cooperatively, lets the workers
  /// drain the queue, joins them, waits for callers still inside a job's
  /// wait(), then returns. Outstanding handles stay valid (terminal).
  ~EvolutionService();

  EvolutionService(const EvolutionService&) = delete;
  EvolutionService& operator=(const EvolutionService&) = delete;

  /// Enqueues one evolution. Cache hits complete immediately without
  /// occupying a worker; a submission identical to an in-flight job
  /// coalesces onto it. At max_queue_depth the admission policy applies:
  /// kBlock waits for a free slot, kShed returns this job already
  /// kRejected (check state()).
  JobHandle submit(const core::EvolutionConfig& config, JobOptions options = {});

  /// Submits every item (in order, under the same admission policy) and
  /// returns one handle over the whole fleet. Identical items coalesce
  /// into a single execution.
  BatchHandle submit_batch(const std::vector<BatchItem>& items);

  /// Enqueues the continuation of a suspended run. Only software-backend
  /// snapshots are resumable; throws std::invalid_argument otherwise.
  /// Resumed jobs never coalesce (their start state is not the config's).
  JobHandle resume(const Snapshot& snapshot, JobOptions options = {});

  [[nodiscard]] std::size_t threads() const noexcept { return workers_.size(); }
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }

  /// Jobs waiting to run (excluding running, cache hits, followers and
  /// queued jobs already cancelled through their handles).
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  friend class JobHandle;

  /// The one admission path. A fresh submission (no `resume_from`)
  /// first coalesces onto an identical in-flight job or hits the cache; a
  /// resume skips both and is never registered in flight. Then the
  /// admission policy applies and the job is queued.
  JobHandle submit_one(const core::EvolutionConfig& config, JobOptions options,
                       std::shared_ptr<detail::BatchState> batch,
                       std::optional<Snapshot> resume_from = std::nullopt);
  /// Applies the admission policy while holding `lock`. Returns true if
  /// the caller may enqueue. Otherwise the queue is full: under kShed the
  /// caller refuses the incoming job; under kBlock this has waited for a
  /// free slot (or shutdown) and the caller re-checks everything.
  bool admit_locked(std::unique_lock<std::mutex>& lock);
  /// True if the queue has a free slot. A full queue first drops the jobs
  /// cancelled through their handles while queued, which would otherwise
  /// hold their slots until a worker popped them. Requires `mutex_` held.
  bool has_room_locked();
  /// Cancels every queued and running job, wakes blocked submitters and
  /// the workers, joins the workers once they have drained the queue, then
  /// waits for the registered waiters.
  void shutdown();
  /// A worker's loop: claims the queue's head until shutdown drains it.
  void work();
  /// JobHandle::wait() on a kQueued job of this service, with `job_lock`
  /// holding the job's mutex: registers as a waiter, releases the lock,
  /// runs the job here if it is at the queue's head, unregisters, and
  /// retakes the lock. A job further back is left to the workers.
  void run_if_head(const std::shared_ptr<detail::Job>& job,
                   std::unique_lock<std::mutex>& job_lock);
  /// The one way a job leaves the queue for a runner, a worker or a
  /// waiter. `lock` holds `mutex_` over a non-empty queue; pops the head,
  /// releases `lock` and frees the admission slot. Returns the job for the
  /// caller to run_job(), claimed (kQueued -> kRunning) and in running_;
  /// or null if a handle cancelled it while queued, or if it was flagged
  /// for cancellation before the claim and has been finished here.
  std::shared_ptr<detail::Job> claim_head(std::unique_lock<std::mutex> lock);
  void run_job(detail::Job& job);
  /// Erases the in-flight entry for `job`'s key if it maps to `job`.
  /// Requires `mutex_` held.
  void forget_inflight_locked(const detail::Job& job);
  /// Erases the job's in-flight entry and takes it out of running_, then
  /// ends the job in `state` (recording `error` if non-empty) unless a
  /// handle already cancelled it; its coalesced followers end with it
  /// (detail::Job::terminate).
  void finish(detail::Job& job, JobState state, std::string error = {});

  mutable std::mutex mutex_;
  std::condition_variable admission_cv_;
  /// Wakes a worker when a job is queued, and all of them at shutdown;
  /// shutdown then waits on it for the last registered waiter to leave.
  std::condition_variable work_cv_;
  bool shutting_down_ = false;
  std::uint64_t next_id_ = 1;
  std::size_t max_queue_depth_ = 0;
  AdmissionPolicy admission_ = AdmissionPolicy::kBlock;
  /// Admitted jobs waiting for a worker, oldest first.
  std::deque<std::shared_ptr<detail::Job>> queue_;
  /// Primary (non-follower) jobs by cache key while queued or running;
  /// identical submissions coalesce onto the mapped job. Entries are
  /// erased on completion, or lazily when found dead.
  std::unordered_map<std::uint64_t, std::weak_ptr<detail::Job>> inflight_;
  /// Jobs being run, by a worker or by a waiter; entered in the critical
  /// section that claims the job and left in finish(), so shutdown finds
  /// every running job here. Each runner holds its job alive meanwhile.
  std::vector<detail::Job*> running_;
  /// Callers inside run_if_head(). Incremented under a queued job's
  /// mutex (not mutex_, which ranks above it), decremented under mutex_.
  std::atomic<std::size_t> waiters_{0};
  ResultCache cache_;
  std::vector<std::thread> workers_;
};

}  // namespace leo::serve
