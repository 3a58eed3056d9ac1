#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace leo::obs {

namespace {

/// JSON string escaping for the characters our metric names and log
/// messages can realistically contain.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trip double formatting; JSON has no Inf/NaN, so those
/// degrade to 0 (metrics never legitimately produce them).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

const char* level_string(util::LogLevel level) {
  switch (level) {
    case util::LogLevel::kDebug: return "debug";
    case util::LogLevel::kInfo: return "info";
    case util::LogLevel::kWarn: return "warn";
    case util::LogLevel::kError: return "error";
  }
  return "?";
}

}  // namespace

std::string to_json_line(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\"type\":\"metrics\",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << json_number(value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"bounds\":[";
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      if (i) os << ",";
      os << json_number(hist.bounds[i]);
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      if (i) os << ",";
      os << hist.counts[i];
    }
    os << "],\"count\":" << hist.count << ",\"sum\":" << json_number(hist.sum)
       << "}";
  }
  os << "}}";
  return os.str();
}

std::string pretty_print(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  std::size_t width = 0;
  for (const auto& [name, value] : snapshot.counters) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, value] : snapshot.gauges) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    width = std::max(width, name.size());
  }
  if (!snapshot.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : snapshot.counters) {
      os << "  " << std::left << std::setw(static_cast<int>(width)) << name
         << "  " << value << "\n";
    }
  }
  if (!snapshot.gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [name, value] : snapshot.gauges) {
      os << "  " << std::left << std::setw(static_cast<int>(width)) << name
         << "  " << std::setprecision(6) << value << "\n";
    }
  }
  if (!snapshot.histograms.empty()) {
    os << "histograms:\n";
    for (const auto& [name, hist] : snapshot.histograms) {
      os << "  " << std::left << std::setw(static_cast<int>(width)) << name
         << "  n=" << hist.count << " mean=" << std::setprecision(6)
         << hist.mean() << " sum=" << hist.sum << "\n";
    }
  }
  if (snapshot.empty()) os << "(no metrics recorded)\n";
  return os.str();
}

JsonLinesSink::JsonLinesSink(const std::string& path)
    : out_(path, std::ios::binary | std::ios::app) {
  if (!out_) {
    throw std::runtime_error("JsonLinesSink: cannot open " + path);
  }
}

void JsonLinesSink::on_snapshot(const MetricsSnapshot& snapshot) {
  const std::string line = to_json_line(snapshot);
  const std::scoped_lock lock(mutex_);
  out_ << line << "\n";
  out_.flush();
}

void JsonLinesSink::on_log(const LogEvent& event) {
  std::ostringstream os;
  os << "{\"type\":\"log\",\"level\":\"" << level_string(event.level)
     << "\",\"tag\":\"" << json_escape(event.tag) << "\",\"message\":\""
     << json_escape(event.message) << "\",\"unix_micros\":"
     << event.unix_micros << "}";
  const std::scoped_lock lock(mutex_);
  out_ << os.str() << "\n";
  out_.flush();
}

PeriodicFlusher::PeriodicFlusher(std::shared_ptr<TelemetrySink> sink,
                                 std::chrono::milliseconds period,
                                 MetricsRegistry& source)
    : sink_(std::move(sink)), period_(period), source_(source) {
  if (!sink_) throw std::invalid_argument("PeriodicFlusher: null sink");
  thread_ = std::thread([this] { loop(); });
}

PeriodicFlusher::~PeriodicFlusher() { stop(); }

void PeriodicFlusher::flush_now() {
  sink_->on_snapshot(source_.snapshot());
  flushes_.fetch_add(1, std::memory_order_relaxed);
}

void PeriodicFlusher::stop() {
  {
    const std::scoped_lock lock(mutex_);
    if (stop_ && !thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
    try {
      flush_now();  // final interval is never lost
    } catch (...) {
      // stop() runs from destructors; a failing sink must not terminate.
    }
  }
}

void PeriodicFlusher::loop() {
  std::unique_lock lock(mutex_);
  while (!stop_) {
    if (cv_.wait_for(lock, period_, [this] { return stop_; })) break;
    lock.unlock();
    flush_now();
    lock.lock();
  }
}

std::uint64_t attach_log_sink(std::shared_ptr<TelemetrySink> sink) {
  if (!sink) throw std::invalid_argument("attach_log_sink: null sink");
  return util::add_log_hook([sink](const util::LogRecord& record) {
    LogEvent event;
    event.level = record.level;
    event.tag = record.tag;
    event.message = record.message;
    event.unix_micros = record.unix_micros;
    sink->on_log(event);
  });
}

}  // namespace leo::obs
