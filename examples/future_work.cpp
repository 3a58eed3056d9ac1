// future_work — the paper's closing vision, realized.
//
// §4: "In future work, we will take advantage of the computational power
// provided by the GAP, and use the same kind of evolvable system in order
// to solve problems which deal with bigger genomes (i.e., more complex
// reconfigurable systems) and where the final solution is not known."
//
// The GAP is fully parameterized (population size, genome width up to 48
// bits, thresholds), and the fitness module is a pluggable combinational
// block. Here the same silicon evolves a 48-bit royal-road problem —
// eight 6-bit blocks, a block scores only when complete — a classically
// GA-friendly, mutation-hostile landscape with no gradient inside a
// block.
//
//   ./future_work [seed]
#include <bit>
#include <cstdio>

#include "example_args.hpp"
#include "gap/gap_top.hpp"
#include "rtl/simulator.hpp"

int main(int argc, char** argv) {
  using namespace leo;
  std::uint64_t seed = 1;
  if (argc > 1 && !examples::parse_number(argv[1], seed)) {
    return examples::usage("future_work [seed]");
  }

  // Royal road: score = 8 * (number of complete 6-bit blocks of ones).
  // In hardware: eight AND6 gates and a weighted popcount — comparable in
  // CLBs to a few servo controllers.
  gap::CombinationalFitness royal_road;
  royal_road.genome_bits = 48;
  royal_road.lut4 = 8 * 2 + 10;  // AND6 = 2 LUT4 each, plus the adder tree
  royal_road.fn = [](std::uint64_t g) {
    unsigned score = 0;
    for (unsigned block = 0; block < 8; ++block) {
      const std::uint64_t bits = (g >> (block * 6)) & 0x3F;
      if (bits == 0x3F) score += 8;
    }
    return score;
  };

  gap::GapParams params;
  params.genome_bits = 48;
  params.target_fitness = 64;  // all eight blocks
  params.population_size = 32;
  params.mutations_per_generation = 15;

  std::printf("evolving a 48-bit royal-road genome on the GAP "
              "(2^48 = 2.8e14 search space)...\n");
  gap::GapTop top(nullptr, "gap48", params, seed, royal_road);
  rtl::Simulator sim(top);
  std::uint64_t next_report = 0;
  const bool done = sim.run_until(
      [&] {
        if (top.generation() >= next_report) {
          std::printf("  gen %6llu  best %2u/64  genome blocks: ",
                      static_cast<unsigned long long>(top.generation()),
                      top.best_fitness());
          for (unsigned b = 0; b < 8; ++b) {
            const bool full = ((top.best_genome() >> (b * 6)) & 0x3F) == 0x3F;
            std::printf("%c", full ? '#' : '.');
          }
          std::printf("\n");
          next_report += 250;
        }
        return top.done.read();
      },
      100'000'000);

  if (!done) {
    std::printf("\nnot solved within the cycle budget — royal road is hard; "
                "try another seed\n");
    return 1;
  }
  std::printf("\nsolved in %llu generations, %llu cycles = %.3f s at 1 MHz "
              "— the same FPGA fabric, a different problem.\n",
              static_cast<unsigned long long>(top.generation()),
              static_cast<unsigned long long>(sim.cycles()),
              sim.seconds_at(1e6));
  return 0;
}
