// golden.hpp — exact numbers of the fixed golden job set (seed kGoldenSeed
// in main.cpp), checked in every run. A change that alters any evolved
// genome, generation count, cycle count, engine-run count or snapshot size
// fails the check; regenerate only for a deliberate change of behaviour,
// from the "golden" lines a run prints.
#pragma once

#include <cstdint>

namespace perfbench {

struct GoldenEntry {
  const char* workload;
  const char* name;
  std::uint64_t value;
};

inline constexpr GoldenEntry kGolden[] = {
    {"sw_fleet", "digest", 6955109258865409143ull},
    {"sw_fleet", "submissions", 64ull},
    {"sw_fleet", "generations", 3196ull},
    {"sw_fleet", "engine_runs", 64ull},
    {"sw_fleet", "snapshot_bytes", 0ull},
    {"hw_fleet", "digest", 17302863001791658970ull},
    {"hw_fleet", "submissions", 16ull},
    {"hw_fleet", "generations", 843ull},
    {"hw_fleet", "engine_runs", 16ull},
    {"hw_fleet", "snapshot_bytes", 0ull},
    {"hw_fleet", "clock_cycles", 223938ull},
    {"hw_fleet", "rtl_evaluations", 927205ull},
    {"hw_fleet", "eval_cycles", 54976ull},
    {"hw_fleet", "selxover_cycles", 128136ull},
    {"hw_fleet", "mutate_cycles", 37935ull},
    {"sweep_reuse", "digest", 7518016888997165361ull},
    {"sweep_reuse", "submissions", 312ull},
    {"sweep_reuse", "generations", 19962ull},
    {"sweep_reuse", "engine_runs", 144ull},
    {"sweep_reuse", "snapshot_bytes", 18576ull},
};

}  // namespace perfbench
