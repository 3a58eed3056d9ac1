// Operator microbenchmarks (google-benchmark) — throughput of every hot
// primitive backing experiments E1/E2/E7: fitness scoring (bit-level and
// gate-level), GA operators, a full GA generation, the robot walker, and
// one RTL cycle of the complete GAP.
#include <benchmark/benchmark.h>

#include "fitness/rules.hpp"
#include "fpga/fitness_netlist.hpp"
#include "ga/engine.hpp"
#include "gap/gap_top.hpp"
#include "genome/known_gaits.hpp"
#include "robot/walker.hpp"
#include "rtl/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace leo;

void BM_FitnessScoreBitLevel(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  std::uint64_t g = rng.next_u64() & genome::kGenomeMask;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fitness::score(g));
    g = (g * 6364136223846793005ULL + 1442695040888963407ULL) &
        genome::kGenomeMask;
  }
}
BENCHMARK(BM_FitnessScoreBitLevel);

void BM_FitnessScoreGateLevel(benchmark::State& state) {
  const fpga::Netlist nl = fpga::build_fitness_netlist();
  util::Xoshiro256 rng(1);
  std::uint64_t g = rng.next_u64() & genome::kGenomeMask;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fpga::eval_fitness_netlist(nl, g));
    g = (g * 6364136223846793005ULL + 1) & genome::kGenomeMask;
  }
}
BENCHMARK(BM_FitnessScoreGateLevel);

void BM_TournamentSelection(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  ga::Population pop;
  for (int i = 0; i < 32; ++i) {
    const ga::Genome g{rng.next_u64() & genome::kGenomeMask};
    pop.push_back(
        ga::Individual{g, static_cast<unsigned>(rng.next_below(61))});
  }
  const ga::TournamentSelection sel(util::Prob8::from_double(0.8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.select(pop, rng));
  }
}
BENCHMARK(BM_TournamentSelection);

void BM_SinglePointCrossover(benchmark::State& state) {
  util::Xoshiro256 rng(3);
  const std::uint64_t a = rng.next_u64() & genome::kGenomeMask;
  const std::uint64_t b = rng.next_u64() & genome::kGenomeMask;
  const ga::SinglePointCrossover op;
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.apply(a, b, 36, rng));
  }
}
BENCHMARK(BM_SinglePointCrossover);

void BM_ExactCountMutation(benchmark::State& state) {
  util::Xoshiro256 rng(4);
  ga::Population pop;
  for (int i = 0; i < 32; ++i) {
    pop.push_back(
        ga::Individual{ga::Genome{rng.next_u64() & genome::kGenomeMask}, 0});
  }
  const ga::ExactCountMutation op(15);
  for (auto _ : state) {
    op.apply(pop, 36, rng);
    benchmark::DoNotOptimize(pop);
  }
}
BENCHMARK(BM_ExactCountMutation);

void BM_GaGeneration(benchmark::State& state) {
  ga::GaEngine engine(ga::GaParams{},
                      [](std::uint64_t g) { return fitness::score(g); });
  util::Xoshiro256 rng(5);
  ga::Population pop = engine.make_initial_population(rng);
  for (auto _ : state) {
    engine.step_generation(pop, rng);
    benchmark::DoNotOptimize(pop);
  }
}
BENCHMARK(BM_GaGeneration);

void BM_WalkerGaitCycle(benchmark::State& state) {
  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  const genome::GaitGenome g = genome::tripod_gait();
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.continue_walk(g, 1));
  }
}
BENCHMARK(BM_WalkerGaitCycle);

void BM_GapRtlCycle(benchmark::State& state) {
  gap::GapParams params;
  params.target_fitness = 61;  // never stops
  gap::GapTop top(nullptr, "gap", params, 6);
  rtl::Simulator sim(top);
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.cycles()));
}
BENCHMARK(BM_GapRtlCycle);

void BM_CaRngStep(benchmark::State& state) {
  util::CaRng ca = util::CaRng::make_hortensius16(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ca.step());
  }
}
BENCHMARK(BM_CaRngStep);

}  // namespace

BENCHMARK_MAIN();
