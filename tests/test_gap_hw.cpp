// Tests for the hardware Genetic Algorithm Processor (cycle-accurate RTL).
#include "gap/gap_top.hpp"

#include <gtest/gtest.h>

#include <set>

#include "fitness/rules.hpp"
#include "fpga/fitness_netlist.hpp"
#include "fpga/techmap.hpp"
#include "gap/pair_fifo.hpp"
#include "rtl/simulator.hpp"

namespace leo::gap {
namespace {

// ---- PairFifo ----

class FifoHarness final : public rtl::Module {
 public:
  FifoHarness() : rtl::Module(nullptr, "tb"), fifo(this, "fifo", 10) {}
  PairFifo fifo;
};

TEST(PairFifo, PushPopOrdering) {
  FifoHarness tb;
  rtl::Simulator sim(tb);
  EXPECT_TRUE(tb.fifo.empty.read());
  EXPECT_FALSE(tb.fifo.full.read());

  tb.fifo.in_pair.write(0x11);
  tb.fifo.push.write(true);
  sim.step();
  tb.fifo.in_pair.write(0x22);
  sim.step();
  tb.fifo.push.write(false);
  EXPECT_TRUE(tb.fifo.full.read());
  EXPECT_EQ(tb.fifo.out_pair.read(), 0x11u);

  tb.fifo.pop.write(true);
  sim.step();
  EXPECT_EQ(tb.fifo.out_pair.read(), 0x22u);
  sim.step();
  tb.fifo.pop.write(false);
  EXPECT_TRUE(tb.fifo.empty.read());
}

TEST(PairFifo, PushWhenFullIsDropped) {
  FifoHarness tb;
  rtl::Simulator sim(tb);
  tb.fifo.push.write(true);
  tb.fifo.in_pair.write(1);
  sim.step();
  tb.fifo.in_pair.write(2);
  sim.step();
  tb.fifo.in_pair.write(3);  // fifo already holds {1, 2}
  sim.step();
  tb.fifo.push.write(false);
  tb.fifo.pop.write(true);
  sim.step();
  EXPECT_EQ(tb.fifo.out_pair.read(), 2u);  // 3 was refused, not overwritten
}

TEST(PairFifo, SimultaneousPushPopAtCountOne) {
  FifoHarness tb;
  rtl::Simulator sim(tb);
  tb.fifo.push.write(true);
  tb.fifo.in_pair.write(7);
  sim.step();
  // count == 1; pop + push in the same cycle: new element becomes head.
  tb.fifo.in_pair.write(9);
  tb.fifo.pop.write(true);
  sim.step();
  tb.fifo.push.write(false);
  tb.fifo.pop.write(false);
  EXPECT_FALSE(tb.fifo.empty.read());
  EXPECT_EQ(tb.fifo.out_pair.read(), 9u);
}

// ---- GapTop ----

struct GapFixtureResult {
  bool done;
  std::uint64_t generations;
  unsigned best;
  std::uint64_t genome;
  std::uint64_t cycles;
  std::uint64_t selxover;
};

GapFixtureResult run_gap(GapParams params, std::uint64_t seed,
                         std::uint64_t max_cycles = 5'000'000) {
  GapTop top(nullptr, "gap", params, seed);
  rtl::Simulator sim(top);
  sim.run_until([&] { return top.done.read(); }, max_cycles);
  return {top.done.read(),    top.generation(),        top.best_fitness(),
          top.best_genome(),  sim.cycles(),            top.cycles_in_selxover()};
}

TEST(GapTop, InitializationFillsPopulationWithRandomGenomes) {
  GapParams params;
  GapTop top(nullptr, "gap", params, 0xABCD);
  rtl::Simulator sim(top);
  sim.run(4 * params.population_size + 2);
  // Population must be loaded and non-degenerate.
  std::set<std::uint64_t> distinct;
  for (std::size_t i = 0; i < params.population_size; ++i) {
    distinct.insert(top.peek_basis(i));
  }
  EXPECT_GT(distinct.size(), params.population_size / 2);
}

TEST(GapTop, FitnessRamMatchesSoftwareScores) {
  GapParams params;
  GapTop top(nullptr, "gap", params, 0x1111);
  rtl::Simulator sim(top);
  // Run through INIT (128 cycles) + EVAL (64 cycles) and stop before the
  // breeding phase touches anything.
  sim.run(4 * params.population_size + 2 * params.population_size + 1);
  for (std::size_t i = 0; i < params.population_size; ++i) {
    EXPECT_EQ(top.peek_fitness_ram(i), fitness::score(top.peek_basis(i)))
        << "individual " << i;
  }
}

TEST(GapTop, EvolvesToMaximumFitness) {
  const GapFixtureResult r = run_gap(GapParams{}, 42);
  EXPECT_TRUE(r.done);
  EXPECT_EQ(r.best, 60u);
  EXPECT_TRUE(fitness::is_max_fitness(r.genome));
}

TEST(GapTop, BestFitnessReportedMatchesBestGenome) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const GapFixtureResult r = run_gap(GapParams{}, seed);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(fitness::score(r.genome), r.best);
  }
}

TEST(GapTop, DeterministicForSameSeed) {
  const GapFixtureResult a = run_gap(GapParams{}, 77);
  const GapFixtureResult b = run_gap(GapParams{}, 77);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.genome, b.genome);
}

TEST(GapTop, DifferentSeedsDiverge) {
  const GapFixtureResult a = run_gap(GapParams{}, 1001);
  const GapFixtureResult b = run_gap(GapParams{}, 1002);
  EXPECT_NE(a.cycles, b.cycles);
}

TEST(GapTop, SequentialModeAlsoConverges) {
  GapParams params;
  params.pipelined = false;
  const GapFixtureResult r = run_gap(params, 42);
  EXPECT_TRUE(r.done);
  EXPECT_EQ(r.best, 60u);
}

TEST(GapTop, PipelineReducesSelXoverCycles) {
  // Paper §3.2: "To decrease computation time by a factor of about two,
  // we ran the selection and crossover operators in a pipeline."
  GapParams pipe;
  GapParams seq;
  seq.pipelined = false;
  const GapFixtureResult a = run_gap(pipe, 9);
  const GapFixtureResult b = run_gap(seq, 9);
  ASSERT_TRUE(a.done);
  ASSERT_TRUE(b.done);
  const double per_gen_pipe =
      static_cast<double>(a.selxover) / static_cast<double>(a.generations);
  const double per_gen_seq =
      static_cast<double>(b.selxover) / static_cast<double>(b.generations);
  EXPECT_GT(per_gen_seq / per_gen_pipe, 1.3)
      << "pipelined " << per_gen_pipe << " vs sequential " << per_gen_seq;
}

TEST(GapTop, BestNeverDecreasesAcrossGenerations) {
  GapParams params;
  params.target_fitness = 61;  // unreachable: run freely
  GapTop top(nullptr, "gap", params, 5);
  rtl::Simulator sim(top);
  unsigned last_best = 0;
  for (int i = 0; i < 40'000; ++i) {
    sim.step();
    const unsigned best = top.best_fitness();
    ASSERT_GE(best, last_best);
    last_best = best;
  }
  EXPECT_GT(top.generation(), 50u);
  EXPECT_LE(top.best_fitness(), 60u);
}

TEST(GapTop, MutationKeepsPopulationWellFormed) {
  GapParams params;
  params.target_fitness = 61;
  GapTop top(nullptr, "gap", params, 6);
  rtl::Simulator sim(top);
  sim.run(30'000);
  for (std::size_t i = 0; i < params.population_size; ++i) {
    EXPECT_EQ(top.peek_basis(i) >> params.genome_bits, 0u)
        << "genome " << i << " has bits above the genome width";
  }
}

// ---- FitnessUnit ----

TEST(GaitFitness, LutTallyIsMappedOncePerSpecAndStaysExact) {
  const CombinationalFitness first = make_gait_fitness();
  const CombinationalFitness again = make_gait_fitness();
  EXPECT_GT(first.lut4, 0u);
  EXPECT_EQ(again.lut4, first.lut4);
  const fpga::Netlist netlist = fpga::build_fitness_netlist();
  EXPECT_EQ(first.lut4, fpga::map_to_lut4(netlist).lut4);

  fitness::FitnessSpec ablated;
  ablated.use_symmetry = false;
  const CombinationalFitness without_r2 = make_gait_fitness(ablated);
  EXPECT_NE(without_r2.lut4, first.lut4);
  EXPECT_EQ(make_gait_fitness(ablated).lut4, without_r2.lut4);
  EXPECT_EQ(without_r2.lut4,
            fpga::map_to_lut4(fpga::build_fitness_netlist(ablated)).lut4);
  EXPECT_EQ(make_gait_fitness().lut4, first.lut4);
}

TEST(GapTop, ParameterValidation) {
  GapParams odd;
  odd.population_size = 5;
  EXPECT_THROW(GapTop(nullptr, "gap", odd, 1), std::invalid_argument);
  GapParams wide;
  wide.genome_bits = 64;
  EXPECT_THROW(GapTop(nullptr, "gap", wide, 1), std::invalid_argument);
}

TEST(GapTop, SmallerPopulationWorks) {
  GapParams params;
  params.population_size = 16;
  const GapFixtureResult r = run_gap(params, 11, 10'000'000);
  EXPECT_TRUE(r.done);
  EXPECT_EQ(r.best, 60u);
}

/// Parameterized sweep: the GAP must converge across population sizes
/// and both pipelining modes (the VHDL-generic flexibility of §3.3).
class GapSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

TEST_P(GapSweep, ConvergesAndReportsConsistently) {
  auto [population, pipelined] = GetParam();
  GapParams params;
  params.population_size = population;
  params.pipelined = pipelined;
  GapTop top(nullptr, "gap", params, 0xC0FFEE);
  rtl::Simulator sim(top);
  ASSERT_TRUE(sim.run_until([&] { return top.done.read(); }, 60'000'000));
  EXPECT_EQ(top.best_fitness(), 60u);
  EXPECT_EQ(fitness::score(top.best_genome()), 60u);
}

INSTANTIATE_TEST_SUITE_P(
    Populations, GapSweep,
    ::testing::Combine(::testing::Values(8u, 16u, 32u, 64u),
                       ::testing::Bool()));

/// Threshold extremes must not wedge the machine.
TEST(GapTop, ExtremeThresholdsStillRun) {
  for (const double sel : {0.5, 1.0}) {
    for (const double xov : {0.0, 1.0}) {
      GapParams params;
      params.selection_threshold = util::Prob8::from_double(sel);
      params.crossover_threshold = util::Prob8::from_double(xov);
      params.target_fitness = 61;  // run freely
      GapTop top(nullptr, "gap", params, 3);
      rtl::Simulator sim(top);
      sim.run(20'000);
      EXPECT_GT(top.generation(), 20u) << "sel " << sel << " xov " << xov;
      EXPECT_LE(top.best_fitness(), 60u);
    }
  }
}

TEST(GapTop, ResetRestartsEvolution) {
  GapParams params;
  GapTop top(nullptr, "gap", params, 42);
  rtl::Simulator sim(top);
  sim.run_until([&] { return top.done.read(); }, 5'000'000);
  ASSERT_TRUE(top.done.read());
  sim.reset();
  EXPECT_FALSE(top.done.read());
  EXPECT_EQ(top.generation(), 0u);
  sim.run_until([&] { return top.done.read(); }, 5'000'000);
  EXPECT_TRUE(top.done.read());
}

}  // namespace
}  // namespace leo::gap
