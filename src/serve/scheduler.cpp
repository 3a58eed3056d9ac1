#include "serve/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/config_hash.hpp"

namespace leo::serve {

namespace {

/// Registry instruments resolved once; all updates are relaxed atomics.
struct ServeMetrics {
  obs::Counter& submitted = obs::registry().counter("leo_serve_jobs_submitted_total");
  obs::Counter& resumed = obs::registry().counter("leo_serve_jobs_resumed_total");
  obs::Counter& coalesced = obs::registry().counter("leo_serve_jobs_coalesced_total");
  obs::Counter& batches = obs::registry().counter("leo_serve_batches_submitted_total");
  obs::Counter& admission_blocked =
      obs::registry().counter("leo_serve_admission_blocked_total");

  static ServeMetrics& get() {
    static ServeMetrics instance;
    return instance;
  }
};

/// True for a queued job cancelled through its handle: it is terminal but
/// stays in the queue until a worker pops it or admission drops it. Takes
/// the job's mutex; callers hold the service mutex (lock order service ->
/// job, as in coalescing).
bool cancelled_while_queued(const std::shared_ptr<detail::Job>& job) {
  const std::scoped_lock lock(job->mutex);
  return is_terminal(job->state);
}

/// Ends `job` in `state`, recording `error` if non-empty, unless it is
/// already terminal: cancelled through its handle.
void terminate(detail::Job& job, JobState state, std::string error = {}) {
  std::unique_lock lock(job.mutex);
  if (is_terminal(job.state)) return;
  if (!error.empty()) job.error = std::move(error);
  job.terminate(std::move(lock), state);
}

constexpr const char* kShedError =
    "shed by admission control (queue full, policy=shed)";

}  // namespace

EvolutionService::EvolutionService(std::size_t threads)
    : EvolutionService(ServiceOptions{.threads = threads}) {}

EvolutionService::EvolutionService(const ServiceOptions& options)
    : max_queue_depth_(options.max_queue_depth),
      admission_(options.admission),
      cache_(options.cache_capacity) {
  const std::size_t threads =
      options.threads != 0
          ? options.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  running_.reserve(threads);
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { work(); });
    }
  } catch (...) {
    shutdown();  // join the workers already started
    throw;
  }
}

EvolutionService::~EvolutionService() { shutdown(); }

void EvolutionService::shutdown() {
  {
    const std::scoped_lock lock(mutex_);
    shutting_down_ = true;
    for (const auto& job : queue_) {
      job->cancel_requested.store(true, std::memory_order_relaxed);
    }
    for (detail::Job* job : running_) {
      job->cancel_requested.store(true, std::memory_order_relaxed);
    }
  }
  admission_cv_.notify_all();  // wake blocked submitters; they throw
  // Workers drain the queue (each cancelled job still completes, releasing
  // its coalesced followers), then return.
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Every queued job has now left kQueued, so no waiter can register any
  // more; those registered may still be running their job or about to
  // look at the queue, and this service must outlive them.
  std::unique_lock lock(mutex_);
  work_cv_.wait(lock, [this] { return waiters_ == 0; });
}

JobHandle EvolutionService::submit(const core::EvolutionConfig& config,
                                   JobOptions options) {
  return submit_one(config, options, nullptr);
}

BatchHandle EvolutionService::submit_batch(const std::vector<BatchItem>& items) {
  if (obs::enabled()) ServeMetrics::get().batches.inc();
  auto state = std::make_shared<detail::BatchState>();
  std::vector<JobHandle> handles;
  handles.reserve(items.size());
  for (const BatchItem& item : items) {
    handles.push_back(submit_one(item.config, item.options, state));
  }
  return BatchHandle(std::move(state), std::move(handles));
}

JobHandle EvolutionService::submit_one(
    const core::EvolutionConfig& config, JobOptions options,
    std::shared_ptr<detail::BatchState> batch,
    std::optional<Snapshot> resume_from) {
  const std::uint64_t key = config_key(config);
  // Resumed jobs never coalesce, hit the cache or register in inflight_:
  // their start state is a snapshot, not the config's generation zero, so
  // a fresh submission of the same config must not share their outcome.
  const bool fresh = !resume_from;
  if (obs::enabled()) {
    (fresh ? ServeMetrics::get().submitted : ServeMetrics::get().resumed).inc();
  }
  // Called once, on whichever path hands the job back; requires mutex_.
  const auto make_job = [&] {
    auto job = std::make_shared<detail::Job>(next_id_++, config, options, key);
    job->batch = std::move(batch);
    job->resume_from = std::move(resume_from);
    return job;
  };

  std::unique_lock lock(mutex_);
  for (;;) {
    if (shutting_down_) {
      throw std::runtime_error("EvolutionService: submit after shutdown");
    }

    if (fresh && options.use_cache) {
      // Coalesce with an identical in-flight execution. Same cache key and
      // same generation budget means the same deterministic run, so the
      // follower can simply share the primary's outcome — the in-flight
      // analogue of the result cache. Checked and registered under mutex_,
      // which closes the lookup/insert check-then-act race that used to
      // run concurrent duplicates to completion.
      if (const auto it = inflight_.find(key); it != inflight_.end()) {
        if (const auto primary = it->second.lock()) {
          std::shared_ptr<detail::Job> follower;
          {
            const std::scoped_lock primary_lock(primary->mutex);
            if (!is_terminal(primary->state) && primary->options.use_cache &&
                primary->options.generation_budget ==
                    options.generation_budget) {
              follower = make_job();
              follower->coalesced = true;
              primary->followers.push_back(follower);
            }
          }
          if (follower) {
            if (obs::enabled()) ServeMetrics::get().coalesced.inc();
            return JobHandle(std::move(follower));
          }
        } else {
          inflight_.erase(it);
        }
      }

      if (auto cached = cache_.lookup(key)) {
        auto job = make_job();  // not yet shared: no lock needed to fill it
        job->progress.store(
            detail::pack_progress(cached->generations, cached->best_fitness),
            std::memory_order_release);
        job->result = std::move(*cached);
        job->from_cache = true;
        terminate(*job, JobState::kSucceeded);
        return JobHandle(std::move(job));
      }
    }

    if (admit_locked(lock)) break;
    if (admission_ == AdmissionPolicy::kShed) {
      // The queue is full: hand back an already rejected handle instead of
      // growing the queue.
      auto job = make_job();
      terminate(*job, JobState::kRejected, kShedError);
      return JobHandle(std::move(job));
    }
    // kBlock woke up: loop to re-check shutdown, coalescing and the cache
    // (the identical job may have completed while we were waiting).
  }

  auto job = make_job();
  job->service = this;
  queue_.push_back(job);
  if (fresh && options.use_cache) inflight_[key] = job;
  lock.unlock();
  work_cv_.notify_one();
  return JobHandle(std::move(job));
}

bool EvolutionService::admit_locked(std::unique_lock<std::mutex>& lock) {
  if (has_room_locked()) return true;
  if (admission_ == AdmissionPolicy::kBlock) {
    if (obs::enabled()) ServeMetrics::get().admission_blocked.inc();
    admission_cv_.wait(lock,
                       [this] { return shutting_down_ || has_room_locked(); });
  }
  return false;
}

bool EvolutionService::has_room_locked() {
  if (max_queue_depth_ == 0 || queue_.size() < max_queue_depth_) return true;
  if (std::erase_if(queue_, cancelled_while_queued) == 0) return false;
  return queue_.size() < max_queue_depth_;
}

JobHandle EvolutionService::resume(const Snapshot& snapshot,
                                   JobOptions options) {
  if (snapshot.config.backend != core::Backend::kSoftware) {
    throw std::invalid_argument(
        "EvolutionService::resume: only software-backend snapshots are "
        "resumable");
  }
  if (config_key(snapshot.config) != snapshot.config_key) {
    throw std::invalid_argument(
        "EvolutionService::resume: snapshot key mismatch");
  }
  return submit_one(snapshot.config, options, nullptr, snapshot);
}

std::size_t EvolutionService::queue_depth() const {
  const std::scoped_lock lock(mutex_);
  return queue_.size() - static_cast<std::size_t>(std::ranges::count_if(
                             queue_, cancelled_while_queued));
}

void EvolutionService::work() {
  for (;;) {
    std::unique_lock lock(mutex_);
    work_cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutting down and drained
    if (const auto job = claim_head(std::move(lock))) run_job(*job);
  }
}

void EvolutionService::run_if_head(const std::shared_ptr<detail::Job>& job,
                                   std::unique_lock<std::mutex>& job_lock) {
  // Registered while the job is kQueued under its mutex, so this service
  // is alive: its shutdown cannot finish before the job leaves kQueued,
  // and then waits for every registered waiter.
  ++waiters_;
  job_lock.unlock();
  std::shared_ptr<detail::Job> claimed;
  {
    std::unique_lock lock(mutex_);
    if (!queue_.empty() && queue_.front() == job) {
      claimed = claim_head(std::move(lock));
    }
  }
  if (claimed) run_job(*claimed);
  {
    const std::scoped_lock lock(mutex_);
    if (--waiters_ == 0 && shutting_down_) work_cv_.notify_all();
  }
  job_lock.lock();
}

std::shared_ptr<detail::Job> EvolutionService::claim_head(
    std::unique_lock<std::mutex> lock) {
  std::shared_ptr<detail::Job> job = std::move(queue_.front());
  queue_.pop_front();
  bool claimed = false;
  bool cancelled = false;
  {
    const std::scoped_lock job_lock(job->mutex);
    // A job cancelled through its handle while queued is already terminal.
    // Otherwise claim it under its mutex, so a concurrent handle-side
    // cancel cannot terminalize it twice.
    if (job->state == JobState::kQueued) {
      job->state = JobState::kRunning;
      running_.push_back(job.get());
      claimed = true;
      cancelled = job->cancel_requested.load(std::memory_order_relaxed);
    }
  }
  lock.unlock();
  if (max_queue_depth_ != 0) admission_cv_.notify_one();
  if (!claimed) return nullptr;
  if (cancelled) {
    // Flagged before its claim, by shutdown or by a cancel() that has not
    // reached the job's mutex yet: it ends without running, through
    // finish(), which also releases its coalesced followers.
    finish(*job, JobState::kCancelled);
    return nullptr;
  }
  return job;
}

void EvolutionService::run_job(detail::Job& job) {
  try {
    const bool software = job.config.backend == core::Backend::kSoftware;
    core::RunControl control;
    control.generation_budget = job.options.generation_budget;
    control.should_stop = [&job] {
      return job.cancel_requested.load(std::memory_order_relaxed);
    };
    control.on_progress = [&job](std::uint64_t generation, unsigned best) {
      // Lock-free publication; see detail::pack_progress.
      job.progress.store(detail::pack_progress(generation, best),
                         std::memory_order_release);
    };

    core::EvolutionResult result;
    std::optional<Snapshot> snapshot;
    if (software) {
      core::EvolutionSession session =
          job.resume_from
              ? core::EvolutionSession(job.config, job.resume_from->state,
                                       job.resume_from->rng_state)
              : core::EvolutionSession(job.config);
      result = session.run(control);
      // The job's one snapshot is the state the run stopped in, so
      // suspended and cancelled jobs can be resumed and succeeded jobs can
      // seed warm starts.
      snapshot = make_snapshot(session);
    } else {
      result = core::evolve(job.config, control);
    }

    {
      const std::scoped_lock lock(job.mutex);
      job.result = result;
      job.snapshot = std::move(snapshot);
      job.progress.store(
          detail::pack_progress(result.generations, result.best_fitness),
          std::memory_order_release);
    }

    JobState state = JobState::kSucceeded;
    if (job.cancel_requested.load(std::memory_order_relaxed)) {
      state = JobState::kCancelled;
    } else if (!result.reached_target &&
               result.generations < job.config.max_generations) {
      // Stopped by the generation budget. The RTL simulator's state is not
      // serializable, so a budget-stopped hardware run has no snapshot and
      // cannot resume: an honest terminal state instead of a kSuspended
      // that resume() would reject.
      state = software ? JobState::kSuspended : JobState::kBudgetExhausted;
    }

    if (state == JobState::kSucceeded && job.options.use_cache) {
      // Inserted BEFORE the inflight_ entry is erased in finish(), so a
      // concurrent identical submit always sees one of the two.
      cache_.insert(job.cache_key, result);
    }
    finish(job, state);
  } catch (const std::exception& e) {
    finish(job, JobState::kFailed, e.what());
  }
}

void EvolutionService::forget_inflight_locked(const detail::Job& job) {
  if (const auto it = inflight_.find(job.cache_key); it != inflight_.end()) {
    if (it->second.lock().get() == &job) inflight_.erase(it);
  }
}

void EvolutionService::finish(detail::Job& job, JobState state,
                              std::string error) {
  {
    const std::scoped_lock lock(mutex_);
    forget_inflight_locked(job);
    std::erase(running_, &job);
  }
  terminate(job, state, std::move(error));
}

}  // namespace leo::serve
