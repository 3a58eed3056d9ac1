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
//   3. on success, writes the Report it filled as {"bench", "schema":2,
//      "iters", "exact":{...}, "measured":{...}}, or exits 1 naming a value
//      that is not finite. ctest <bench>.ExactMatchesBaseline requires
//      `exact` to equal bench/baselines/BENCH_<name>.json's.
//
// Keys are named leo_bench_<name>_<quantity>. A library counter a bench
// claims (leo_rtl_cycles_total) is copied into `exact` under its own name.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace leo::bench {

struct Options {
  /// Scale knob from --iters; 0 (flag absent) means "use the bench's
  /// default".
  std::uint64_t iters = 0;
};

/// A bench's machine-readable results.
struct Report {
  /// Functions of the seeds, --iters and the code only: the same on every
  /// run, build and machine.
  std::map<std::string, double> exact;
  /// Read from a clock, or moved by the thread schedule or the machine.
  std::map<std::string, double> measured;
};

/// Short bench id; names the output file (BENCH_<id>.json).
const char* bench_name();

/// Runs the bench, printing its human report to stdout and filling
/// `report`. Nonzero return skips the JSON emission.
int bench_run(const Options& options, Report& report);

}  // namespace leo::bench
