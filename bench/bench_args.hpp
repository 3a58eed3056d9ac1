// bench_args.hpp — strict parsing of a bench's positional count arguments
// (trials, seeds): a bad count prints usage and exits 2 instead of
// silently running zero iterations.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace leo::bench {

/// Strict positive decimal count; false for empty, signed, non-numeric,
/// trailing-garbage, out-of-range or zero input.
inline bool parse_count(const std::string& text, std::uint64_t& out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0 || value == 0) return false;
  out = value;
  return true;
}

}  // namespace leo::bench
