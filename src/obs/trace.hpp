// trace.hpp — scoped timers that feed the metrics registry and, when
// tracing is armed, a Chrome-trace-format event buffer.
//
// A TraceSpan costs two steady_clock reads while obs::enabled() (one
// relaxed load when not); the duration lands in a registry histogram
// named `<span>_seconds`. Arming the global TraceCollector additionally
// records begin/duration events that write_chrome_trace() serializes as
// the JSON array format chrome://tracing and Perfetto open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace leo::obs {

/// One completed span, timestamps in microseconds since collector start.
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
};

/// Bounded in-memory span sink. Recording is mutex-guarded (spans close at
/// generation/run granularity, not per-cycle, so contention is nil).
class TraceCollector {
 public:
  /// Starts buffering spans; resets the clock origin and any prior events.
  void arm(std::size_t capacity = kDefaultCapacity);
  void disarm() noexcept;
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  void record(std::string_view name,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  /// Copies the buffered events (oldest first).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Events dropped because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

 private:
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::size_t capacity_ = kDefaultCapacity;
  std::chrono::steady_clock::time_point origin_{};
  std::vector<TraceEvent> events_;
};

/// The process-wide collector TraceSpan reports to.
[[nodiscard]] TraceCollector& tracer();

/// Chrome trace JSON ("traceEvents" array of complete "X" events) for the
/// given events; write_chrome_trace() wraps it with file I/O and throws
/// std::runtime_error on failure.
[[nodiscard]] std::string to_chrome_trace(const std::vector<TraceEvent>& events);
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events);

/// RAII scoped timer. `name` must outlive the span (string literals).
/// On destruction the duration is observed into
/// registry().histogram(name + "_seconds"), resolved once per name and
/// thread, and, if the collector is armed, recorded as a trace event.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept
      : name_(name), armed_(enabled() || tracer().armed()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~TraceSpan() { close(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span early (idempotent).
  void close() noexcept;

 private:
  const char* name_;
  bool armed_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace leo::obs
