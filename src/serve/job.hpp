// job.hpp — evolution jobs: options, lifecycle states, and the handle the
// submitter polls.
//
// Lifecycle:
//
//   (queue full, kShed) ──► kRejected         (refused at admission, never
//                                              queued; wait() throws)
//   kQueued ──────────────► kCancelled        (cancelled before starting;
//      │                                       its queue slot is freed)
//      │ popped oldest first, by a worker or by the
//      │ thread waiting on it (JobHandle::wait)
//      ▼
//   kRunning ─► kSucceeded                    (target reached, or
//      │                                       config.max_generations done)
//      ├──────► kSuspended                    (software job stopped by its
//      │                                       generation budget; snapshot
//      │                                       available → resume())
//      ├──────► kBudgetExhausted              (hardware job stopped by its
//      │                                       generation budget; the RTL
//      │                                       state is not serializable, so
//      │                                       there is no snapshot and no
//      │                                       resume — rerun instead)
//      ├──────► kCancelled                    (cooperative cancel; software
//      │                                       jobs carry a snapshot)
//      └──────► kFailed                       (exception; error() set)
//
// A software job that runs takes exactly one snapshot: the state its run
// stopped in, on its way to kSucceeded, kSuspended or kCancelled. There is
// no mid-run capture; to snapshot a running job, cancel() it and resume()
// its snapshot, which continues bit-identically to an uninterrupted run.
//
// A job runs on a worker thread, or on the thread that calls wait() on it
// while it is at the head of the queue: that waiter pops it and runs it
// through the same claim and runner as a worker, instead of sleeping while
// a worker runs it. A job further back is waited for, so jobs still start
// oldest first and a waiter only ever runs its own job.
//
// Jobs that hit the result cache go straight to kSucceeded without ever
// occupying a worker (from_cache() == true). Coalesced followers — a
// submit() whose identical job was already queued/running — likewise never
// run: they stay kQueued until the primary execution finishes and then
// inherit its terminal state, result and snapshot (coalesced() == true).
//
// Every arrow into a terminal state above goes through one function,
// detail::Job::terminate(): the scheduler's transitions, a handle
// cancelling a queued job, and a follower completing with its primary.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/evolution_engine.hpp"
#include "serve/checkpoint.hpp"

namespace leo::serve {

class EvolutionService;

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kSucceeded,
  kSuspended,
  kBudgetExhausted,
  kCancelled,
  kRejected,
  kFailed,
};

[[nodiscard]] const char* to_string(JobState state) noexcept;

/// True for states in which the job will never run again.
[[nodiscard]] constexpr bool is_terminal(JobState state) noexcept {
  return state != JobState::kQueued && state != JobState::kRunning;
}

struct JobOptions {
  /// Absolute generation ceiling (0 = none). A software job stopped by its
  /// budget ends kSuspended with a snapshot; a hardware job, which cannot
  /// snapshot, ends kBudgetExhausted.
  std::uint64_t generation_budget = 0;
  /// Consult/populate the deterministic result cache, and allow this
  /// submission to coalesce with an identical in-flight job.
  bool use_cache = true;
};

/// Point-in-time progress of a running job.
struct JobProgress {
  std::uint64_t generation = 0;
  unsigned best_fitness = 0;
};

namespace detail {

/// Progress is published as ONE packed atomic word — generation in the
/// high 48 bits, best-ever fitness in the low 16 — so polling readers
/// always get a mutually consistent (generation, fitness) pair without
/// taking the job mutex on the runner's per-generation hot path.
///
/// Memory ordering: the runner stores with release, readers load with
/// acquire. A reader that observes generation G therefore also observes
/// every write the runner made before publishing G. Both fields are
/// monotone non-decreasing over a job's life (generation counts up;
/// fitness is best-ever), which the concurrent-poll test relies on.
///
/// 48 bits of generation is ~2.8e14 — far above any configured
/// max_generations; fitness specs max out two orders of magnitude below
/// the 16-bit cap.
[[nodiscard]] constexpr std::uint64_t pack_progress(
    std::uint64_t generation, unsigned best_fitness) noexcept {
  return (generation << 16) | (best_fitness & 0xFFFFu);
}

[[nodiscard]] constexpr JobProgress unpack_progress(
    std::uint64_t packed) noexcept {
  return JobProgress{packed >> 16,
                     static_cast<unsigned>(packed & 0xFFFFu)};
}

/// Completion bookkeeping shared by every job of one submit_batch() call:
/// `terminal` counts jobs that reached a terminal state, bumped exactly
/// once per job (Job::terminate). BatchHandle waits on `cv`.
/// Leaf in the lock order: job mutexes are never taken while holding it.
struct BatchState {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t terminal = 0;
};

/// Shared state between EvolutionService (writer) and JobHandle (reader).
/// Mutable fields are guarded by `mutex`; the cancel flag is a lock-free
/// atomic because the runner polls it every generation.
struct Job {
  Job(std::uint64_t id_in, core::EvolutionConfig config_in,
      JobOptions options_in, std::uint64_t cache_key_in)
      : id(id_in),
        config(std::move(config_in)),
        options(options_in),
        cache_key(cache_key_in) {}

  const std::uint64_t id;
  const core::EvolutionConfig config;
  const JobOptions options;
  const std::uint64_t cache_key;
  /// Set for jobs created by EvolutionService::resume().
  std::optional<Snapshot> resume_from;
  /// Set before the job is published; nullptr outside submit_batch().
  std::shared_ptr<BatchState> batch;
  /// The service whose queue holds the job; set before it is queued,
  /// nullptr for jobs never queued (cache hits, refusals, followers). Only
  /// dereferenced by a waiter that found the job kQueued under `mutex`
  /// (see EvolutionService::run_if_head).
  EvolutionService* service = nullptr;

  std::atomic<bool> cancel_requested{false};
  /// See pack_progress() for the layout and ordering contract.
  std::atomic<std::uint64_t> progress{0};

  mutable std::mutex mutex;
  std::condition_variable cv;
  JobState state = JobState::kQueued;
  core::EvolutionResult result;
  std::string error;
  bool from_cache = false;
  /// True for followers that attached to an identical in-flight job
  /// instead of enqueueing their own execution.
  bool coalesced = false;
  std::optional<Snapshot> snapshot;
  /// Coalesced submissions attached to THIS job's execution; completed
  /// with this job's outcome when it turns terminal. Guarded by `mutex`.
  std::vector<std::shared_ptr<Job>> followers;

  /// Moves the job into terminal state `s`, bumps its
  /// `leo_serve_jobs_<state>_total` counter, wakes every waiter — the
  /// job's own cv and, for batch members, the batch cv — and completes
  /// its coalesced followers with its outcome (state, result, error,
  /// snapshot, progress), skipping those already cancelled through their
  /// own handles. `lock` holds `mutex`, and the caller has checked under
  /// it that the job is live; the lock is released before the followers
  /// are completed. This is the only way a job becomes terminal, so each
  /// transition counts once.
  void terminate(std::unique_lock<std::mutex> lock, JobState s);
};

}  // namespace detail

/// Shared-ownership view of a submitted job. Copyable; all methods are
/// thread-safe. Handles outlive the service only in terminal states (the
/// service cancels live jobs on destruction).
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return job_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const;
  [[nodiscard]] std::uint64_t cache_key() const;
  [[nodiscard]] JobState state() const;
  [[nodiscard]] JobProgress progress() const;
  [[nodiscard]] bool from_cache() const;
  /// True if this submission attached to an identical in-flight execution
  /// instead of running its own (see EvolutionService coalescing).
  [[nodiscard]] bool coalesced() const;
  /// Error message; empty unless state() is kFailed or kRejected.
  [[nodiscard]] std::string error() const;

  /// Blocks until the job is terminal. A job still at the head of its
  /// service's queue runs here, on the calling thread; any other live job
  /// is waited for. Returns the (possibly partial) result for kSucceeded /
  /// kSuspended / kBudgetExhausted / kCancelled; throws std::runtime_error
  /// for kFailed and kRejected.
  core::EvolutionResult wait();

  /// Requests cooperative cancellation; returns immediately. Queued jobs
  /// (and not-yet-completed coalesced followers) cancel instantly, running
  /// jobs at the next generation boundary.
  void cancel();

  /// The state a software job's run stopped in — suspended, cancelled or
  /// succeeded (propagated to coalesced followers as well). Empty until the
  /// run stops, and for hardware jobs, cache hits, failed jobs and jobs
  /// cancelled before they ran.
  [[nodiscard]] std::optional<Snapshot> snapshot() const;

 private:
  friend class EvolutionService;
  explicit JobHandle(std::shared_ptr<detail::Job> job)
      : job_(std::move(job)) {}

  std::shared_ptr<detail::Job> job_;
};

}  // namespace leo::serve
