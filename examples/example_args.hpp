// example_args.hpp — strict command-line arguments for the examples.
//
// Every example reads a numeric argument whole: a malformed one prints
// usage on stderr and exits 2 instead of running on a prefix or on 0.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace leo::examples {

/// Prints `usage: <synopsis>` on stderr; returns the usage exit status 2.
inline int usage(const char* synopsis) {
  std::fprintf(stderr, "usage: %s\n", synopsis);
  return 2;
}

/// Reads a whole argument as strtoull(..., 0) does (decimal, 0x hex,
/// leading-0 octal); false for empty, signed, trailing-garbage or
/// out-of-range input.
inline bool parse_number(const char* text, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (errno != 0 || *end != '\0') return false;
  out = value;
  return true;
}

/// Reads a whole argument as strtod does; false for empty,
/// trailing-garbage or non-finite input.
inline bool parse_finite(const char* text, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) return false;
  out = value;
  return true;
}

}  // namespace leo::examples
