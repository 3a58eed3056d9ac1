// export.hpp — getting telemetry out of the process.
//
// A TelemetrySink receives metric snapshots (periodically, via
// PeriodicFlusher) and structured log events (via attach_log_sink, which
// bridges util::log_message's hook). One exporter ships in-tree:
// JsonLinesSink writes one JSON object per line ({"type":"metrics",...} /
// {"type":"log",...}) — grep/jq-friendly trajectories.
//
// Formatting is split out (to_json_line / pretty_print) so the CLI, the
// bench harness and tests can render snapshots without a sink.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace leo::obs {

/// A structured log record as seen by sinks.
struct LogEvent {
  util::LogLevel level = util::LogLevel::kInfo;
  std::string tag;
  std::string message;
  /// Wall-clock microseconds since the Unix epoch, stamped at emit time.
  std::int64_t unix_micros = 0;
};

/// Receiver of exported telemetry. Implementations must be thread-safe:
/// on_snapshot and on_log can arrive concurrently from the flusher thread
/// and any logging thread.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_snapshot(const MetricsSnapshot& snapshot) = 0;
  virtual void on_log(const LogEvent& event) { (void)event; }
};

/// {"type":"metrics","counters":{...},"gauges":{...},"histograms":{...}}
[[nodiscard]] std::string to_json_line(const MetricsSnapshot& snapshot);
/// Human-readable aligned listing for `discipulus_cli stats`.
[[nodiscard]] std::string pretty_print(const MetricsSnapshot& snapshot);

/// Appends JSON lines to a file. Throws std::runtime_error if the file
/// cannot be opened.
class JsonLinesSink : public TelemetrySink {
 public:
  explicit JsonLinesSink(const std::string& path);
  void on_snapshot(const MetricsSnapshot& snapshot) override;
  void on_log(const LogEvent& event) override;

 private:
  std::mutex mutex_;
  std::ofstream out_;
};

/// Background thread that snapshots a registry into a sink at a fixed
/// period. Owned by whoever wants continuous export (the serve scheduler);
/// the destructor stops the thread and delivers one final snapshot so
/// short-lived processes never lose their last interval.
class PeriodicFlusher {
 public:
  PeriodicFlusher(std::shared_ptr<TelemetrySink> sink,
                  std::chrono::milliseconds period,
                  MetricsRegistry& source = registry());
  ~PeriodicFlusher();

  PeriodicFlusher(const PeriodicFlusher&) = delete;
  PeriodicFlusher& operator=(const PeriodicFlusher&) = delete;

  /// Delivers a snapshot immediately (in the caller's thread).
  void flush_now();
  /// Stops the thread after a final flush. Idempotent.
  void stop();

  [[nodiscard]] std::uint64_t flushes() const noexcept {
    return flushes_.load(std::memory_order_relaxed);
  }

 private:
  void loop();

  std::shared_ptr<TelemetrySink> sink_;
  std::chrono::milliseconds period_;
  MetricsRegistry& source_;
  std::atomic<std::uint64_t> flushes_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last member: started last, joined via stop()
};

/// Bridges util::log hooks to `sink->on_log`. Returns the hook id;
/// detach with util::remove_log_hook(id). The sink is kept alive by the
/// hook's shared_ptr for as long as it stays registered.
std::uint64_t attach_log_sink(std::shared_ptr<TelemetrySink> sink);

}  // namespace leo::obs
