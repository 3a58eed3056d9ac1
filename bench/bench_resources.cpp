// E3 — FPGA resource utilization of the complete Discipulus Simplex.
//
// Paper §3.3: "The complete system implemented in the XC4036ex FPGA uses
// 96 percent of the available CLBs, i.e. 1296 CLBs. It represents around
// 30,000 logic gates."
//
// Reproduced from first principles: the fitness module is elaborated to
// real gates and LUT-mapped; every other module self-reports its LUT/FF/
// RAM primitives (formulas documented per module); the XC4000 CLB
// geometry converts primitives to CLBs and gate equivalents.
//
//   ./bench_resources   # no scale knob: --iters is accepted and ignored
//
// Emits BENCH_resources.json (shared runner; see bench_harness.hpp) with
// the fitness module's LUT4 count and the whole design's LUT4, FF, CLB
// and gate figures as exact leo_bench_resources_* values.
#include <cstdio>

#include "bench_harness.hpp"
#include "core/discipulus.hpp"
#include "fpga/fitness_netlist.hpp"
#include "fpga/techmap.hpp"
#include "fpga/xc4000.hpp"

namespace leo::bench {

const char* bench_name() { return "resources"; }

int bench_run(const Options&, Report& report) {
  std::printf("E3 — resource utilization on the %s (paper: 96 %% of 1296 "
              "CLBs, ~30,000 gates)\n\n", fpga::kXc4036Ex.name.c_str());

  // Gate-level detail of the one module we synthesize fully.
  const fpga::Netlist nl = fpga::build_fitness_netlist();
  const fpga::MappingResult map = fpga::map_to_lut4(nl);
  std::printf("fitness module, elaborated to gates:\n"
              "  %zu two-input gates -> %zu LUT4 (depth %zu), i.e. the "
              "\"fitness only in terms of logic computations\" of §3.2\n\n",
              nl.gate_count(), map.lut4, map.depth);

  core::DiscipulusParams params;
  core::DiscipulusTop top(nullptr, "discipulus", params, 1);
  const fpga::UtilizationReport usage = fpga::report_utilization(top);
  std::printf("%s\n", usage.to_string(fpga::kXc4036Ex).c_str());

  std::printf("paper-reported : 1296 CLBs (96 %%), ~30,000 gates\n");
  std::printf("measured       : %llu CLBs (%.1f %%), ~%.0f gates\n",
              static_cast<unsigned long long>(usage.total_clbs),
              usage.utilization * 100.0, usage.gate_equivalents);
  std::printf("\nThe design fits the paper's device with the same order of "
              "magnitude of logic;\nour model is ~2x leaner because it "
              "counts ideal primitives (no routing/placement\nloss, no 1998 "
              "synthesis overhead) — see EXPERIMENTS.md E3.\n\n");

  std::printf("module hierarchy (paper Figs. 3-5):\n%s",
              top.hierarchy_report().c_str());

  report.exact = {
      {"leo_bench_resources_fitness_lut4", static_cast<double>(map.lut4)},
      {"leo_bench_resources_lut4", static_cast<double>(usage.total.lut4)},
      {"leo_bench_resources_ff", static_cast<double>(usage.total.ff)},
      {"leo_bench_resources_clbs", static_cast<double>(usage.total_clbs)},
      {"leo_bench_resources_utilization", usage.utilization},
      {"leo_bench_resources_gate_equivalents", usage.gate_equivalents}};
  return 0;
}

}  // namespace leo::bench
