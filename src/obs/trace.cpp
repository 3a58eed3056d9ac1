#include "obs/trace.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace leo::obs {

namespace {

std::uint32_t this_thread_id() {
  // Compact per-thread ids for the trace viewer's row labels; ids are
  // assigned in first-span order and never reused within the process.
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint64_t micros_between(std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// The `<name>_seconds` histogram of a span name. Each thread resolves a
/// name through the registry (string build + registry lock) once, so
/// closing a span takes neither; the registry keeps histogram references
/// valid for the life of the process.
Histogram& span_histogram(const char* name) {
  thread_local std::vector<std::pair<std::string, Histogram*>> resolved;
  for (const auto& [known, histogram] : resolved) {
    if (known == name) return *histogram;
  }
  Histogram& histogram = registry().histogram(std::string(name) + "_seconds");
  resolved.emplace_back(name, &histogram);
  return histogram;
}

}  // namespace

void TraceCollector::arm(std::size_t capacity) {
  const std::scoped_lock lock(mutex_);
  capacity_ = capacity ? capacity : kDefaultCapacity;
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  origin_ = std::chrono::steady_clock::now();
  armed_.store(true, std::memory_order_relaxed);
}

void TraceCollector::disarm() noexcept {
  armed_.store(false, std::memory_order_relaxed);
}

void TraceCollector::record(std::string_view name,
                            std::chrono::steady_clock::time_point start,
                            std::chrono::steady_clock::time_point end) {
  if (!armed()) return;
  const std::scoped_lock lock(mutex_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent ev;
  ev.name.assign(name.data(), name.size());
  ev.tid = this_thread_id();
  ev.start_us = micros_between(origin_, start);
  ev.duration_us = micros_between(start, end);
  events_.push_back(std::move(ev));
}

std::vector<TraceEvent> TraceCollector::events() const {
  const std::scoped_lock lock(mutex_);
  return events_;
}

TraceCollector& tracer() {
  static TraceCollector instance;
  return instance;
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << ev.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << ev.tid << ",\"ts\":" << ev.start_us << ",\"dur\":" << ev.duration_us
       << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_chrome_trace: cannot open " + path);
  }
  out << to_chrome_trace(events);
  if (!out.flush()) {
    throw std::runtime_error("write_chrome_trace: write failed for " + path);
  }
}

void TraceSpan::close() noexcept {
  if (!armed_) return;
  armed_ = false;
  const auto end = std::chrono::steady_clock::now();
  if (enabled()) {
    const double seconds =
        std::chrono::duration<double>(end - start_).count();
    try {
      span_histogram(name_).observe(seconds);
    } catch (...) {
      // A span must never throw out of a destructor; a malformed name
      // simply drops the sample.
    }
  }
  tracer().record(name_, start_, end);
}

}  // namespace leo::obs
