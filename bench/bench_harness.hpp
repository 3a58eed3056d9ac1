// bench_harness.hpp — the shared bench runner contract.
//
// A report bench does not define main(); it implements the two functions
// below and links leo_bench_harness, whose main():
//
//   1. parses the only two flags
//        --iters N    scale knob (bench-defined meaning; absent means the
//                     bench's default); N is a positive integer
//        --out PATH   where to write the JSON report
//                     (default: BENCH_<bench_name()>.json)
//      Anything else — a bad or missing count, a dangling flag, a bare
//      argument, an unknown flag — prints usage and exits 2 before any
//      work is done;
//   2. runs bench_run();
//   3. on success, snapshots the obs metrics registry and writes the
//      machine-readable report:
//        {"bench":..., "schema":1, "iters":..., "metrics":{...}}
//      (schema checked in CI by scripts/check_bench_json.py).
//
// Benches report through the registry: headline numbers land in gauges
// named leo_bench_<bench>_<quantity> next to whatever the instrumented
// layers (ga/rtl/gap/serve) recorded during the run.
#pragma once

#include <cstdint>

namespace leo::bench {

struct Options {
  /// Scale knob from --iters; 0 (flag absent) means "use the bench's
  /// default".
  std::uint64_t iters = 0;
};

/// Short bench id; names the output file (BENCH_<id>.json).
const char* bench_name();

/// Runs the bench, printing its human report to stdout and recording
/// machine-readable results into obs::registry(). Nonzero return skips
/// the JSON emission.
int bench_run(const Options& options);

}  // namespace leo::bench
