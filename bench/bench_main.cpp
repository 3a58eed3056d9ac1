// bench_main.cpp — main() for every bench linking leo_bench_harness.
// See bench_harness.hpp for the contract.
#include "bench_harness.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_args.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

int main(int argc, char** argv) {
  using namespace leo;

  const auto usage = [&](std::FILE* to) {
    std::fprintf(to,
                 "usage: %s [--iters N] [--out PATH] [--no-json] "
                 "[bench-specific args]\n",
                 argv[0]);
  };
  bench::Options options;
  std::string out_path;
  bool emit_json = true;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--iters") == 0 && i + 1 < argc) {
      if (!bench::parse_count(argv[++i], options.iters)) {
        usage(stderr);
        std::fprintf(stderr, "  the --iters count is a positive integer\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(arg, "--no-json") == 0) {
      emit_json = false;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      options.args.emplace_back(arg);
    }
  }

  const int rc = bench::bench_run(options);
  if (rc != 0 || !emit_json) return rc;

  if (out_path.empty()) {
    out_path = std::string("BENCH_") + bench::bench_name() + ".json";
  }
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
