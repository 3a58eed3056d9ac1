#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace leo::obs {

namespace {

/// JSON string escaping for the characters metric names can
/// realistically contain.
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
  if (snapshot.empty()) os << "(no metrics recorded)\n";
  return os.str();
}

}  // namespace leo::obs
