// bench_main.cpp — main() for every report bench (links leo_bench_harness).
// See bench_harness.hpp for the contract.
#include "bench_harness.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

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

  const int rc = bench::bench_run(options);
  if (rc != 0) return rc;

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\"bench\":\"" << bench::bench_name() << "\",\"schema\":1,"
      << "\"iters\":" << options.iters << ",\"metrics\":"
      << obs::to_json_line(obs::registry().snapshot()) << "}\n";
  if (!out.flush()) {
    std::fprintf(stderr, "write failed for %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
