#include "obs/export.hpp"

#include <algorithm>
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
  os << "}}";
  return os.str();
}

std::string pretty_print(const MetricsSnapshot& snapshot) {
  if (snapshot.counters.empty()) return "(no metrics recorded)\n";
  std::size_t width = 0;
  for (const auto& [name, value] : snapshot.counters) {
    width = std::max(width, name.size());
  }
  std::ostringstream os;
  os << "counters:\n";
  for (const auto& [name, value] : snapshot.counters) {
    os << "  " << std::left << std::setw(static_cast<int>(width)) << name
       << "  " << value << "\n";
  }
  return os.str();
}

}  // namespace leo::obs
