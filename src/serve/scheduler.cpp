#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/config_hash.hpp"
#include "util/log.hpp"

namespace leo::serve {

bool schedule_before(const detail::Job& a, const detail::Job& b) {
  if (a.options.priority != b.options.priority) {
    return a.options.priority > b.options.priority;
  }
  return a.id < b.id;
}

const char* to_string(AdmissionPolicy policy) noexcept {
  switch (policy) {
    case AdmissionPolicy::kBlock: return "block";
    case AdmissionPolicy::kReject: return "reject";
    case AdmissionPolicy::kShed: return "shed";
  }
  return "unknown";
}

namespace {

/// std heap comparator: "less" means scheduled later.
bool heap_less(const std::shared_ptr<detail::Job>& a,
               const std::shared_ptr<detail::Job>& b) {
  return schedule_before(*b, *a);
}

/// Registry instruments resolved once; all updates are relaxed atomics.
struct ServeMetrics {
  obs::Counter& submitted = obs::registry().counter("leo_serve_jobs_submitted_total");
  obs::Counter& resumed = obs::registry().counter("leo_serve_jobs_resumed_total");
  obs::Counter& coalesced = obs::registry().counter("leo_serve_jobs_coalesced_total");
  obs::Counter& batches = obs::registry().counter("leo_serve_batches_submitted_total");
  obs::Counter& cache_hits = obs::registry().counter("leo_serve_cache_hits_total");
  obs::Counter& cache_misses = obs::registry().counter("leo_serve_cache_misses_total");
  obs::Counter& checkpoints = obs::registry().counter("leo_serve_checkpoints_total");
  obs::Counter& admission_blocked =
      obs::registry().counter("leo_serve_admission_blocked_total");
  obs::Counter& admission_rejected =
      obs::registry().counter("leo_serve_admission_rejected_total");
  obs::Gauge& queue_depth = obs::registry().gauge("leo_serve_queue_depth");
  obs::Gauge& jobs_running = obs::registry().gauge("leo_serve_jobs_running");

  static ServeMetrics& get() {
    static ServeMetrics instance;
    return instance;
  }
};

/// Terminal-state counters (leo_serve_jobs_<state>_total) resolve through
/// detail::terminal_counter_name so the handle-side cancel path and the
/// follower propagation count identically to the scheduler paths.
void count_terminal(JobState state) {
  if (!obs::enabled()) return;
  if (const char* name = detail::terminal_counter_name(state)) {
    obs::registry().counter(name).inc();
  }
}

/// Period of the metrics flusher a service with a telemetry sink runs.
constexpr std::chrono::seconds kTelemetryFlushPeriod{1};

constexpr const char* kShedError =
    "shed by admission control (queue full, policy=shed)";

}  // namespace

EvolutionService::EvolutionService(std::size_t threads)
    : EvolutionService(ServiceOptions{.threads = threads}) {}

EvolutionService::EvolutionService(const ServiceOptions& options)
    : max_queue_depth_(options.max_queue_depth),
      admission_(options.admission),
      cache_(options.cache_capacity),
      pool_(options.threads) {
  if (options.telemetry) {
    log_hook_id_ = obs::attach_log_sink(options.telemetry);
    flusher_ = std::make_unique<obs::PeriodicFlusher>(options.telemetry,
                                                      kTelemetryFlushPeriod);
  }
}

EvolutionService::~EvolutionService() {
  if (log_hook_id_ != 0) util::remove_log_hook(log_hook_id_);
  std::vector<std::weak_ptr<detail::Job>> live;
  {
    const std::scoped_lock lock(mutex_);
    shutting_down_ = true;
    live = std::move(live_jobs_);
  }
  admission_cv_.notify_all();  // wake blocked submitters; they throw
  for (const auto& weak : live) {
    if (const auto job = weak.lock()) {
      job->cancel_requested.store(true, std::memory_order_relaxed);
      const std::scoped_lock lock(job->mutex);
      if (job->state == JobState::kQueued) {
        // The worker task will still pop it and mark completion order.
        job->cv.notify_all();
      }
    }
  }
  // pool_ is the last member, so its destructor runs first: it drains the
  // queued run_next() tasks (which observe the cancel flags, complete the
  // jobs, and release any coalesced followers) and joins.
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
  bool cache_counted = false;  // obs hit/miss counted once per submission
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
        if (obs::enabled() && !cache_counted) {
          ServeMetrics::get().cache_hits.inc();
        }
        auto job = make_job();  // not yet shared: no lock needed to fill it
        job->progress.store(
            detail::pack_progress(cached->generations, cached->best_fitness),
            std::memory_order_release);
        job->result = std::move(*cached);
        job->from_cache = true;
        terminate(*job, JobState::kSucceeded);
        return JobHandle(std::move(job));
      }
      if (obs::enabled() && !cache_counted) ServeMetrics::get().cache_misses.inc();
      cache_counted = true;
    }

    if (admit_locked(lock, options)) break;
    if (admission_ != AdmissionPolicy::kBlock) {
      // kShed decided to shed the incoming job: hand back an already
      // rejected handle instead of growing the queue.
      auto job = make_job();
      terminate(*job, JobState::kRejected, kShedError);
      return JobHandle(std::move(job));
    }
    // kBlock woke up: loop to re-check shutdown, coalescing and the cache
    // (the identical job may have completed while we were waiting).
  }

  auto job = make_job();
  queue_.push_back(job);
  std::push_heap(queue_.begin(), queue_.end(), heap_less);
  if (fresh && options.use_cache) inflight_[key] = job;
  live_jobs_.push_back(job);
  if (live_jobs_.size() >= 64 && live_jobs_.size() >= 2 * live_jobs_floor_) {
    compact_live_jobs_locked();
  }
  if (obs::enabled()) {
    ServeMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
  }
  lock.unlock();
  pool_.submit([this] { run_next(); });
  return JobHandle(std::move(job));
}

bool EvolutionService::admit_locked(std::unique_lock<std::mutex>& lock,
                                    const JobOptions& options) {
  if (max_queue_depth_ == 0 || queue_.size() < max_queue_depth_) return true;
  switch (admission_) {
    case AdmissionPolicy::kBlock:
      if (obs::enabled()) ServeMetrics::get().admission_blocked.inc();
      admission_cv_.wait(lock, [this] {
        return shutting_down_ || queue_.size() < max_queue_depth_;
      });
      // Caller loops: re-checks shutdown/coalescing/cache, then re-admits.
      return false;
    case AdmissionPolicy::kReject:
      if (obs::enabled()) ServeMetrics::get().admission_rejected.inc();
      throw QueueFullError(
          "EvolutionService: queue full (depth " +
          std::to_string(queue_.size()) + ", cap " +
          std::to_string(max_queue_depth_) + ", policy=reject)");
    case AdmissionPolicy::kShed: {
      // Shed the lowest-scheduled queued job if the incoming one outranks
      // it; ties shed the newcomer (it would be scheduled last anyway).
      const auto victim_it =
          std::min_element(queue_.begin(), queue_.end(), heap_less);
      if (victim_it == queue_.end()) return true;  // cap 0-sized queue
      const std::shared_ptr<detail::Job> victim = *victim_it;
      bool victim_live = false;
      {
        const std::scoped_lock victim_lock(victim->mutex);
        victim_live = victim->state == JobState::kQueued;
      }
      if (victim_live && victim->options.priority >= options.priority) {
        return false;  // incoming job is (tied-)lowest: shed it instead
      }
      queue_.erase(victim_it);
      std::make_heap(queue_.begin(), queue_.end(), heap_less);
      if (obs::enabled()) {
        ServeMetrics::get().queue_depth.set(
            static_cast<double>(queue_.size()));
      }
      forget_inflight_locked(*victim);
      terminate(*victim, JobState::kRejected, kShedError);
      return true;
    }
  }
  return true;
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

void EvolutionService::compact_live_jobs_locked() {
  std::erase_if(live_jobs_, [](const std::weak_ptr<detail::Job>& weak) {
    const auto job = weak.lock();
    if (!job) return true;
    const std::scoped_lock lock(job->mutex);
    return is_terminal(job->state);
  });
  live_jobs_floor_ = std::max<std::size_t>(32, live_jobs_.size());
}

std::size_t EvolutionService::queue_depth() const {
  const std::scoped_lock lock(mutex_);
  return queue_.size();
}

std::size_t EvolutionService::live_jobs_size() const {
  const std::scoped_lock lock(mutex_);
  return live_jobs_.size();
}

void EvolutionService::run_next() {
  std::shared_ptr<detail::Job> job;
  {
    const std::scoped_lock lock(mutex_);
    if (queue_.empty()) return;
    std::pop_heap(queue_.begin(), queue_.end(), heap_less);
    job = std::move(queue_.back());
    queue_.pop_back();
    if (obs::enabled()) {
      ServeMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
    }
  }
  if (max_queue_depth_ != 0) admission_cv_.notify_one();
  bool cancelled = false;
  {
    const std::scoped_lock job_lock(job->mutex);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    // Claim the job before releasing the lock so a concurrent handle-side
    // cancel cannot terminalize it twice; the cancelled branch below goes
    // through finish(), which also releases coalesced followers.
    job->state = JobState::kRunning;
    cancelled = job->cancel_requested.load(std::memory_order_relaxed);
  }
  if (cancelled) {
    finish(*job, JobState::kCancelled);
    return;
  }
  if (obs::enabled()) ServeMetrics::get().jobs_running.add(1.0);
  run_job(*job);
  if (obs::enabled()) ServeMetrics::get().jobs_running.add(-1.0);
}

void EvolutionService::run_job(detail::Job& job) {
  try {
    const bool software = job.config.backend == core::Backend::kSoftware;
    core::RunControl control;
    control.generation_budget = job.options.generation_budget;
    // Only a software session stops for a checkpoint request: the RTL
    // simulator's state cannot be captured, so a hardware run ignores it.
    control.should_stop = [&job, software] {
      return job.cancel_requested.load(std::memory_order_relaxed) ||
             (software &&
              job.checkpoint_requested.load(std::memory_order_relaxed));
    };
    control.on_progress = [&job](std::uint64_t generation, unsigned best) {
      // Lock-free publication; see detail::pack_progress.
      job.progress.store(detail::pack_progress(generation, best),
                         std::memory_order_release);
    };

    core::EvolutionResult result;
    if (software) {
      core::EvolutionSession session =
          job.resume_from
              ? core::EvolutionSession(job.config, job.resume_from->state,
                                       job.resume_from->rng_state)
              : core::EvolutionSession(job.config);
      // Publishes the session's state and wakes checkpoint() waiters.
      const auto capture = [&job, &session] {
        const Snapshot snap = make_snapshot(session);
        if (obs::enabled()) ServeMetrics::get().checkpoints.inc();
        const std::scoped_lock lock(job.mutex);
        job.snapshot = snap;
        ++job.snapshot_seq;
        job.checkpoint_requested.store(false, std::memory_order_relaxed);
        job.cv.notify_all();
      };
      for (;;) {
        result = session.run(control);
        // A checkpoint request stops the run at the next generation
        // boundary; capture the state, then keep running — checkpoints do
        // not perturb the evolution (same engine state, same RNG stream).
        if (!job.checkpoint_requested.load(std::memory_order_relaxed)) break;
        capture();
        const bool budget_hit = job.options.generation_budget != 0 &&
                                result.generations >=
                                    job.options.generation_budget;
        if (result.reached_target ||
            job.cancel_requested.load(std::memory_order_relaxed) ||
            budget_hit || result.generations >= job.config.max_generations) {
          break;
        }
      }
      // Leave the final state behind so suspended/cancelled jobs can be
      // resumed and succeeded jobs can seed warm starts.
      capture();
    } else {
      result = core::evolve(job.config, control);
    }

    {
      const std::scoped_lock lock(job.mutex);
      job.result = result;
      job.progress.store(
          detail::pack_progress(result.generations, result.best_fitness),
          std::memory_order_release);
    }

    JobState state = JobState::kSucceeded;
    if (job.cancel_requested.load(std::memory_order_relaxed)) {
      state = JobState::kCancelled;
    } else if (software) {
      if (!result.reached_target &&
          result.generations < job.config.max_generations) {
        state = JobState::kSuspended;  // stopped by the generation budget
      }
    } else if (!result.reached_target && job.options.generation_budget != 0 &&
               result.generations >= job.options.generation_budget) {
      // The RTL simulator's state is not serializable, so a budget-stopped
      // hardware run has no snapshot and cannot resume: an honest terminal
      // state instead of a kSuspended that resume() would reject.
      state = JobState::kBudgetExhausted;
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
  }
  terminate(job, state, std::move(error));
}

void EvolutionService::terminate(detail::Job& job, JobState state,
                                 std::string error) {
  std::vector<std::shared_ptr<detail::Job>> followers;
  {
    const std::scoped_lock lock(job.mutex);
    if (is_terminal(job.state)) return;
    if (!error.empty()) job.error = std::move(error);
    followers = std::move(job.followers);
    job.followers.clear();
    job.enter_terminal_locked(
        state, completions_.fetch_add(1, std::memory_order_relaxed) + 1);
    // Counted before the mutex is released, as complete_followers() does:
    // a waiter woken by the state change sees the counter already moved.
    count_terminal(state);
  }
  detail::complete_followers(std::move(followers), job, &completions_);
}

}  // namespace leo::serve
