#include "serve/job.hpp"

#include <array>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/scheduler.hpp"

namespace leo::serve {

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kSucceeded: return "succeeded";
    case JobState::kSuspended: return "suspended";
    case JobState::kBudgetExhausted: return "budget-exhausted";
    case JobState::kCancelled: return "cancelled";
    case JobState::kRejected: return "rejected";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

namespace detail {

namespace {

/// The counter of terminal state `s`, resolved once for all six (listed
/// in JobState order, from kSucceeded).
obs::Counter& terminal_counter(JobState s) {
  static_assert(static_cast<int>(JobState::kFailed) -
                    static_cast<int>(JobState::kSucceeded) == 5);
  static const std::array<obs::Counter*, 6> counters{
      &obs::registry().counter("leo_serve_jobs_succeeded_total"),
      &obs::registry().counter("leo_serve_jobs_suspended_total"),
      &obs::registry().counter("leo_serve_jobs_budget_exhausted_total"),
      &obs::registry().counter("leo_serve_jobs_cancelled_total"),
      &obs::registry().counter("leo_serve_jobs_rejected_total"),
      &obs::registry().counter("leo_serve_jobs_failed_total")};
  return *counters[static_cast<std::size_t>(s) -
                   static_cast<std::size_t>(JobState::kSucceeded)];
}

}  // namespace

void Job::terminate(std::unique_lock<std::mutex> lock, JobState s) {
  state = s;
  if (obs::enabled()) terminal_counter(s).inc();
  cv.notify_all();
  if (batch) {
    const std::scoped_lock batch_lock(batch->mutex);
    ++batch->terminal;
    batch->cv.notify_all();
  }
  const std::vector<std::shared_ptr<Job>> taken = std::exchange(followers, {});
  lock.unlock();
  // This job is terminal, so its outcome fields no longer change; read
  // them without its mutex. A follower never has followers of its own.
  for (const auto& follower : taken) {
    std::unique_lock follower_lock(follower->mutex);
    if (follower->state != JobState::kQueued) continue;  // cancelled solo
    follower->result = result;
    follower->error = error;
    follower->snapshot = snapshot;
    follower->progress.store(progress.load(std::memory_order_acquire),
                             std::memory_order_release);
    follower->terminate(std::move(follower_lock), s);
  }
}

}  // namespace detail

namespace {

detail::Job& deref(const std::shared_ptr<detail::Job>& job) {
  if (!job) throw std::logic_error("JobHandle: empty handle");
  return *job;
}

}  // namespace

std::uint64_t JobHandle::id() const { return deref(job_).id; }

std::uint64_t JobHandle::cache_key() const { return deref(job_).cache_key; }

JobState JobHandle::state() const {
  detail::Job& job = deref(job_);
  const std::scoped_lock lock(job.mutex);
  return job.state;
}

JobProgress JobHandle::progress() const {
  // One acquire load of the packed word; see detail::pack_progress for
  // why this is a consistent snapshot.
  return detail::unpack_progress(
      deref(job_).progress.load(std::memory_order_acquire));
}

bool JobHandle::from_cache() const {
  detail::Job& job = deref(job_);
  const std::scoped_lock lock(job.mutex);
  return job.from_cache;
}

bool JobHandle::coalesced() const {
  detail::Job& job = deref(job_);
  const std::scoped_lock lock(job.mutex);
  return job.coalesced;
}

std::string JobHandle::error() const {
  detail::Job& job = deref(job_);
  const std::scoped_lock lock(job.mutex);
  return job.error;
}

core::EvolutionResult JobHandle::wait() {
  detail::Job& job = deref(job_);
  std::unique_lock lock(job.mutex);
  if (job.state == JobState::kQueued && job.service != nullptr) {
    job.service->run_if_head(job_, lock);
  }
  job.cv.wait(lock, [&job] { return is_terminal(job.state); });
  if (job.state == JobState::kFailed) {
    throw std::runtime_error("job " + std::to_string(job.id) +
                             " failed: " + job.error);
  }
  if (job.state == JobState::kRejected) {
    throw std::runtime_error("job " + std::to_string(job.id) +
                             " rejected: " + job.error);
  }
  return job.result;
}

void JobHandle::cancel() {
  detail::Job& job = deref(job_);
  job.cancel_requested.store(true, std::memory_order_relaxed);
  std::unique_lock lock(job.mutex);
  // A running job stops at its next generation boundary. A queued one ends
  // here, and a queued primary takes its coalesced followers with it: they
  // share one execution, and that execution will never run. (The stale
  // in-flight map entry is reaped lazily.)
  if (job.state == JobState::kQueued) {
    job.terminate(std::move(lock), JobState::kCancelled);
  }
}

std::optional<Snapshot> JobHandle::snapshot() const {
  detail::Job& job = deref(job_);
  const std::scoped_lock lock(job.mutex);
  return job.snapshot;
}

}  // namespace leo::serve
