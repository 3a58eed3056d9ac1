// bench_harness.hpp — the shared bench runner contract.
//
// A converted bench no longer defines main(); it implements the two
// functions below and links leo_bench_harness, whose main():
//
//   1. parses the common flags
//        --iters N    scale knob (bench-defined meaning); N is a positive
//                     integer, anything else prints usage and exits 2
//        --out PATH   where to write the JSON report
//                     (default: BENCH_<bench_name()>.json)
//        --no-json    stdout report only
//      and passes any remaining positional arguments through untouched,
//      so each bench's historical CLI keeps working;
//   2. runs bench_run();
//   3. on success, snapshots the obs metrics registry and writes the
//      machine-readable trajectory point:
//        {"bench":..., "schema":1, "iters":..., "metrics":{...}}
//      (schema checked in CI by scripts/check_bench_json.py).
//
// Benches report through the registry: headline numbers land in gauges
// named leo_bench_<bench>_<quantity> next to whatever the instrumented
// layers (ga/rtl/gap/serve) recorded during the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace leo::bench {

struct Options {
  /// Scale knob from --iters; 0 (flag absent) means "use the bench's
  /// default".
  std::uint64_t iters = 0;
  /// Positional arguments after flag extraction (argv order).
  std::vector<std::string> args;
};

/// Short bench id; names the output file (BENCH_<id>.json).
const char* bench_name();

/// Runs the bench, printing its human report to stdout and recording
/// machine-readable results into obs::registry(). Nonzero return skips
/// the JSON emission.
int bench_run(const Options& options);

}  // namespace leo::bench
