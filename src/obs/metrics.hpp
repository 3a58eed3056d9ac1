// metrics.hpp — process-wide metrics: monotone counters.
//
// Design goals, in order:
//   1. The hot path is atomics only. Counter::inc never takes a lock;
//      counters are created once (registry mutex) and then written
//      lock-free from any thread.
//   2. Snapshot-on-read. Readers call MetricsRegistry::snapshot() and get
//      plain value structs; exporters, the CLI and tests never touch the
//      live atomics.
//   3. A disabled registry costs one relaxed load. Instrumented code gates
//      on obs::enabled(); when false, no atomics are touched (verified by
//      the bench_pipeline_speedup ±2% criterion).
//
// Naming convention (DESIGN.md §10): `leo_<subsystem>_<metric>[_total]`,
// e.g. leo_serve_jobs_submitted_total, leo_ga_generations_total,
// leo_rtl_cycles_total. `_total` marks monotone counters (Prometheus
// idiom). There is no process-wide value of any other kind: a job's own
// numbers are in its result and a service's in its own records
// (queue_depth(), cache_stats()), so no process-wide copy can be
// overwritten by another worker or service, and a bench returns its
// headline values in its bench::Report (bench/bench_harness.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace leo::obs {

/// Global instrumentation gate. Relaxed atomic; defaults to enabled.
/// Disabling stops new samples but keeps already-recorded values readable.
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Monotone event count. All operations are lock-free and relaxed: a
/// counter is a statistic, not a synchronization point.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Everything the registry knew at one instant, as plain values.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
};

/// Name → counter map. Registration (first call per name) takes a
/// mutex; the returned references are stable for the registry's lifetime,
/// so call sites resolve once and then write lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zeroes every counter (references stay valid).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
};

/// The process-wide registry every instrumented subsystem reports to.
[[nodiscard]] MetricsRegistry& registry();

}  // namespace leo::obs
