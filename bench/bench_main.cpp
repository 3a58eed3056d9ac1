// bench_main.cpp — main() for every report bench (links leo_bench_harness).
// See bench_harness.hpp for the contract.
#include "bench_harness.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

namespace {

/// Strict positive decimal count; false for empty, signed, non-numeric,
/// trailing-garbage, out-of-range or zero input.
bool parse_count(const char* text, std::uint64_t& out) {
  if (*text == '\0' || std::strspn(text, "0123456789") != std::strlen(text)) {
    return false;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text, nullptr, 10);
  if (errno != 0 || value == 0) return false;
  out = value;
  return true;
}

/// Appends one report section as a JSON member, one key per line. False,
/// naming the key on stderr, when a value is not finite: JSON has no Inf
/// or NaN.
bool write_section(std::ostream& out, const char* section,
                   const std::map<std::string, double>& values) {
  out << ",\n\"" << section << "\":{";
  const char* separator = "\n";
  for (const auto& [key, value] : values) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "%s: %s is %g, not a finite number\n", section,
                   key.c_str(), value);
      return false;
    }
    out << separator << "\"" << key << "\":" << value;
    separator = ",\n";
  }
  out << "}";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace leo;

  const auto usage = [&](std::FILE* to) {
    std::fprintf(to, "usage: %s [--iters N] [--out PATH]\n", argv[0]);
  };
  bench::Options options;
  std::string out_path = std::string("BENCH_") + bench::bench_name() + ".json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      return 0;
    }
    const bool iters = std::strcmp(arg, "--iters") == 0;
    if (!iters && std::strcmp(arg, "--out") != 0) {
      usage(stderr);
      std::fprintf(stderr, "  unknown argument '%s'\n", arg);
      return 2;
    }
    if (i + 1 == argc) {
      usage(stderr);
      std::fprintf(stderr, "  %s needs a value\n", arg);
      return 2;
    }
    const char* value = argv[++i];
    if (!iters) {
      out_path = value;
    } else if (!parse_count(value, options.iters)) {
      usage(stderr);
      std::fprintf(stderr, "  the --iters count is a positive integer\n");
      return 2;
    }
  }

  bench::Report report;
  const int rc = bench::bench_run(options, report);
  if (rc != 0) return rc;

  std::ostringstream json;
  json << std::setprecision(17)  // the digits that round-trip a double
       << "{\"bench\":\"" << bench::bench_name() << "\",\"schema\":2,"
       << "\"iters\":" << options.iters;
  if (!write_section(json, "exact", report.exact) ||
      !write_section(json, "measured", report.measured)) {
    return 1;
  }
  json << "}\n";

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  if (!(out << json.str()).flush()) {
    std::fprintf(stderr, "write failed for %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
