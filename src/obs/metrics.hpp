// metrics.hpp — process-wide metrics: counters, gauges, histograms.
//
// Design goals, in order:
//   1. The hot path is atomics only. Counter::inc / Gauge::set /
//      Histogram::observe never take a lock; instruments are created once
//      (registry mutex) and then written lock-free from any thread.
//   2. Snapshot-on-read. Readers call MetricsRegistry::snapshot() and get
//      plain value structs; exporters, the CLI and tests never touch the
//      live atomics.
//   3. A disabled registry costs one relaxed load. Instrumented code gates
//      on obs::enabled(); when false, no clocks are read and no atomics
//      are touched (verified by the bench_pipeline_speedup ±2% criterion).
//
// Naming convention (DESIGN.md §10): `leo_<subsystem>_<metric>[_total]`,
// e.g. leo_serve_queue_depth, leo_ga_generations_total,
// leo_rtl_cycles_total. `_total` marks monotone counters (Prometheus
// idiom); histograms of durations end in `_seconds`.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

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

/// Last-write-wins instantaneous value (queue depth, best fitness, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of a histogram. `bounds` are inclusive upper edges
/// in ascending order; `counts` has bounds.size() + 1 entries, the last
/// being the overflow bucket (samples > bounds.back()). counts sums to
/// `count`; `sum` is the running total of observed values.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  [[nodiscard]] double mean() const noexcept {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Fixed-bucket histogram. Bucket i counts samples x with
/// bounds[i-1] < x <= bounds[i] (bucket 0: x <= bounds[0]); anything
/// above the last bound lands in the overflow bucket, so totals always
/// reconcile. observe() is wait-free: a binary search over the immutable
/// bounds plus two relaxed atomic adds.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending (throws
  /// std::invalid_argument otherwise).
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  void reset() noexcept;

 private:
  const std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default duration buckets (seconds): 1 µs .. ~16 s, powers of four.
[[nodiscard]] std::vector<double> duration_buckets();

/// Everything the registry knew at one instant, as plain values.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Name → instrument map. Registration (first call per name) takes a
/// mutex; the returned references are stable for the registry's lifetime,
/// so call sites resolve once and then write lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// `bounds` is used on first registration only; later calls with the
  /// same name return the existing histogram regardless of bounds.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> bounds);
  /// Duration histogram with duration_buckets().
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zeroes every instrument (references stay valid).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry every instrumented subsystem reports to.
[[nodiscard]] MetricsRegistry& registry();

}  // namespace leo::obs
