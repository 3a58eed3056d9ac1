// evolve_on_fpga — the paper's actual system: Discipulus Simplex evolving
// inside the (simulated) XC4036EX, cycle by cycle at 1 MHz.
//
// Runs the full single-FPGA design (GAP + fitness module + walking
// controller + 12 PWM blocks), reports the clock-cycle budget per GA
// phase, the wall-clock the real chip would have needed, and dumps a VCD
// waveform of the first generations for inspection in GTKWave.
//
//   ./evolve_on_fpga [seed] [vcd-path]
#include <cstdio>
#include <memory>

#include "core/discipulus.hpp"
#include "example_args.hpp"
#include "fpga/xc4000.hpp"
#include "genome/gait_genome.hpp"
#include "rtl/simulator.hpp"
#include "rtl/vcd.hpp"

int main(int argc, char** argv) {
  using namespace leo;

  std::uint64_t seed = 42;
  if (argc > 1 && !examples::parse_number(argv[1], seed)) {
    return examples::usage("evolve_on_fpga [seed] [vcd-path]");
  }
  const char* vcd_path = argc > 2 ? argv[2] : "discipulus.vcd";

  core::DiscipulusParams params;
  params.controller.cycles_per_phase = 1000;  // brisk walk for the demo
  core::DiscipulusTop top(nullptr, "discipulus", params, seed);
  rtl::Simulator sim(top);

  // Trace the first 2000 cycles (initialization + first generations).
  {
    rtl::VcdWriter vcd(vcd_path, top);
    sim.attach_vcd(&vcd);
    sim.run(2000);
    sim.attach_vcd(nullptr);
    std::printf("wrote %s (%zu nets, first 2000 cycles)\n", vcd_path,
                vcd.traced_nets());
  }

  const bool done =
      sim.run_until([&] { return top.evolution_done.read(); }, 50'000'000);
  if (!done) {
    std::printf("evolution did not converge within the cycle budget\n");
    return 1;
  }

  const auto& gap = top.gap();
  std::printf("\nevolved on-chip in %llu generations\n",
              static_cast<unsigned long long>(gap.generation()));
  std::printf("total cycles   : %llu (%.4f s at the paper's 1 MHz)\n",
              static_cast<unsigned long long>(sim.cycles()),
              sim.seconds_at(1e6));
  std::printf("  evaluation   : %llu cycles\n",
              static_cast<unsigned long long>(gap.cycles_in_eval()));
  std::printf("  sel+xover    : %llu cycles (pipelined: %s)\n",
              static_cast<unsigned long long>(gap.cycles_in_selxover()),
              gap.params().pipelined ? "yes" : "no");
  std::printf("  mutation     : %llu cycles\n",
              static_cast<unsigned long long>(gap.cycles_in_mutate()));

  const genome::GaitGenome best =
      genome::GaitGenome::from_bits(gap.best_genome());
  std::printf("\nbest individual (fitness %u): %s\n%s\n", gap.best_fitness(),
              best.to_hex().c_str(), best.diagram().c_str());

  // After convergence the controller is live; step a little and show the
  // sequencer walking the evolved gait.
  std::printf("walking controller now running the evolved gait:\n  phase:");
  for (int i = 0; i < 6; ++i) {
    std::printf(" %u", top.controller().phase.read());
    sim.run(params.controller.cycles_per_phase);
  }
  std::printf("\n\n");

  const fpga::UtilizationReport report = fpga::report_utilization(top);
  std::printf("device utilization: %llu CLBs = %.1f %% of the %s "
              "(~%.0f gate equivalents)\n",
              static_cast<unsigned long long>(report.total_clbs),
              report.utilization * 100.0, fpga::kXc4036Ex.name.c_str(),
              report.gate_equivalents);
  return 0;
}
