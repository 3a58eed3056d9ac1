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
// and gate figures as leo_bench_resources_* gauges.
#include <cstdio>

#include "bench_harness.hpp"
#include "core/discipulus.hpp"
#include "fpga/fitness_netlist.hpp"
#include "fpga/techmap.hpp"
#include "fpga/xc4000.hpp"
#include "obs/metrics.hpp"

namespace leo::bench {

const char* bench_name() { return "resources"; }

int bench_run(const Options&) {
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
  const fpga::UtilizationReport report = fpga::report_utilization(top);
  std::printf("%s\n", report.to_string(fpga::kXc4036Ex).c_str());

  std::printf("paper-reported : 1296 CLBs (96 %%), ~30,000 gates\n");
  std::printf("measured       : %llu CLBs (%.1f %%), ~%.0f gates\n",
              static_cast<unsigned long long>(report.total_clbs),
              report.utilization * 100.0, report.gate_equivalents);
  std::printf("\nThe design fits the paper's device with the same order of "
              "magnitude of logic;\nour model is ~2x leaner because it "
              "counts ideal primitives (no routing/placement\nloss, no 1998 "
              "synthesis overhead) — see EXPERIMENTS.md E3.\n\n");

  std::printf("module hierarchy (paper Figs. 3-5):\n%s",
              top.hierarchy_report().c_str());

  auto& reg = obs::registry();
  reg.gauge("leo_bench_resources_fitness_lut4")
      .set(static_cast<double>(map.lut4));
  reg.gauge("leo_bench_resources_lut4")
      .set(static_cast<double>(report.total.lut4));
  reg.gauge("leo_bench_resources_ff").set(static_cast<double>(report.total.ff));
  reg.gauge("leo_bench_resources_clbs")
      .set(static_cast<double>(report.total_clbs));
  reg.gauge("leo_bench_resources_utilization").set(report.utilization);
  reg.gauge("leo_bench_resources_gate_equivalents")
      .set(report.gate_equivalents);
  return 0;
}

}  // namespace leo::bench
