// E9 (extension) — evolvable hardware versus the processor it replaced.
//
// Paper §1: "In our approach we want to avoid the use of processors and
// of off-line computations"; §2 notes Leonardo's other main board is
// processor-based (derived from the Khepera hardware). This bench runs
// the *same* GA three ways at the same 1 MHz clock:
//
//   1. the GAP (cycle-accurate RTL, combinational fitness, pipelining);
//   2. firmware on the MCU16 processor model (hand-written assembly);
//   3. the exhaustive 1-genome/cycle pipeline (from E2, for reference).
//
//   ./bench_cpu_vs_gap [trials]
//
// The trial count is a positive integer; anything else prints usage and
// exits with status 2.
#include <cstdio>

#include "bench_args.hpp"
#include "cpu/firmware.hpp"
#include "cpu/mcu.hpp"
#include "gap/gap_top.hpp"
#include "genome/known_gaits.hpp"
#include "rtl/simulator.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace leo;
  std::uint64_t trials = 15;
  if ((argc > 1 && !bench::parse_count(argv[1], trials)) || argc > 2) {
    std::fprintf(stderr,
                 "usage: bench_cpu_vs_gap [trials]\n"
                 "  the trial count is a positive integer\n");
    return 2;
  }

  std::printf("E9 — the same GA on evolvable hardware vs on a processor "
              "(both at 1 MHz)\n\n");

  // Per-evaluation cost: combinational module vs software kernel.
  cpu::Mcu mcu;
  (void)cpu::run_fitness_kernel(mcu, genome::tripod_gait().to_bits());
  std::printf("one fitness evaluation:\n");
  std::printf("  GAP fitness module : 1 cycle (combinational; 2 incl. the "
              "RAM read)\n");
  std::printf("  MCU16 firmware     : %llu cycles (%llu instructions)\n\n",
              static_cast<unsigned long long>(mcu.cycles()),
              static_cast<unsigned long long>(mcu.instructions()));

  util::RunningStats gap_cycles;
  util::RunningStats gap_gens;
  util::RunningStats cpu_cycles;
  util::RunningStats cpu_gens;

  for (std::uint64_t seed = 1; seed <= trials; ++seed) {
    gap::GapParams params;
    gap::GapTop top(nullptr, "gap", params, seed);
    rtl::Simulator sim(top);
    if (sim.run_until([&] { return top.done.read(); }, 50'000'000)) {
      gap_cycles.add(static_cast<double>(sim.cycles()));
      gap_gens.add(static_cast<double>(top.generation()));
    }

    const cpu::GaFirmwareResult fw = cpu::run_ga_firmware(
        static_cast<std::uint16_t>(seed), 4'000'000'000ULL);
    if (fw.converged) {
      cpu_cycles.add(static_cast<double>(fw.cycles));
      cpu_gens.add(static_cast<double>(fw.generations));
    }
  }

  std::printf("full evolution to maximum fitness (%llu seeds each):\n",
              static_cast<unsigned long long>(trials));
  std::printf("  platform   gens mean   cycles mean      time @ 1 MHz\n");
  std::printf("  GAP        %8.1f   %12.0f     %10.4f s\n", gap_gens.mean(),
              gap_cycles.mean(), gap_cycles.mean() / 1e6);
  std::printf("  MCU16      %8.1f   %12.0f     %10.4f s\n", cpu_gens.mean(),
              cpu_cycles.mean(), cpu_cycles.mean() / 1e6);

  const double per_gen_gap = gap_cycles.mean() / gap_gens.mean();
  const double per_gen_cpu = cpu_cycles.mean() / cpu_gens.mean();
  std::printf("\n  cycles per generation: GAP %.0f vs MCU16 %.0f — the "
              "evolvable hardware is %.0fx faster\n",
              per_gen_gap, per_gen_cpu, per_gen_cpu / per_gen_gap);
  std::printf("\n(Generation counts differ because the two platforms use "
              "different random\ngenerators — a 16-cell CA vs a 16-bit "
              "LFSR; the per-generation cycle cost is\nthe architectural "
              "comparison.)\n");
  return 0;
}
