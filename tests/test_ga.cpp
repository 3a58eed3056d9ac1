// Tests for the software GA library (selection, crossover, mutation,
// engine) — the reference the hardware GAP is validated against.
#include "ga/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <string>
#include <variant>

#include "fitness/rules.hpp"
#include "ga/diversity.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace leo::ga {
namespace {

constexpr std::uint64_t kMask36 = genome_mask(36);

bool bit(std::uint64_t genome, std::size_t i) { return (genome >> i) & 1; }

/// A uniform random 36-bit genome (one next_u64() draw).
std::uint64_t random_genome(util::RandomSource& rng) {
  return rng.next_u64() & kMask36;
}

Population make_pop(std::initializer_list<unsigned> fitnesses) {
  Population pop;
  std::uint64_t i = 0;
  for (unsigned f : fitnesses) {
    pop.push_back(Individual{Genome{i++}, f});
  }
  return pop;
}

// ---- selection ----

TEST(TournamentSelection, AlwaysPicksBetterAtThreshold255) {
  const TournamentSelection sel(util::Prob8(255));
  const Population pop = make_pop({10, 50});
  util::Xoshiro256 rng(1);
  // Whenever the two candidates differ, index 1 (fitness 50) must win;
  // same-candidate draws return that candidate.
  for (int i = 0; i < 500; ++i) {
    const std::size_t winner = sel.select(pop, rng);
    ASSERT_LT(winner, pop.size());
  }
  // Statistical check: index 1 wins at least 70% (draws include (0,0)).
  int ones = 0;
  for (int i = 0; i < 2000; ++i) ones += sel.select(pop, rng) == 1;
  EXPECT_GT(ones, 1400);
}

TEST(TournamentSelection, ThresholdControlsWinRate) {
  // With threshold t, P(pick the better of a mixed pair) = t.
  const Population pop = make_pop({0, 100});
  util::Xoshiro256 rng(2);
  const TournamentSelection sel(util::Prob8::from_double(0.8));
  int better = 0;
  int mixed = 0;
  for (int i = 0; i < 100'000; ++i) {
    const std::size_t w = sel.select(pop, rng);
    // Candidates are uniform; a "mixed pair" happened with p = 1/2, and
    // conditioned on that, w==1 iff the better one won.
    // Count over all draws: P(w==1) = P(pair {1,1}) + t * P(mixed)
    //                    = 1/4 + 0.8*1/2 (approx, with t = 205/256).
    better += w == 1;
    ++mixed;
  }
  const double expected = 0.25 + (205.0 / 256.0) * 0.5;
  EXPECT_NEAR(static_cast<double>(better) / mixed, expected, 0.01);
}

TEST(TournamentSelection, EmptyPopulationThrows) {
  const TournamentSelection sel(util::Prob8(200));
  Population empty;
  util::Xoshiro256 rng(3);
  EXPECT_THROW((void)sel.select(empty, rng), std::invalid_argument);
}

TEST(RouletteSelection, ProportionalToFitness) {
  const RouletteSelection sel;
  const Population pop = make_pop({10, 30, 60});
  util::Xoshiro256 rng(4);
  std::array<int, 3> counts{};
  for (int i = 0; i < 100'000; ++i) ++counts[sel.select(pop, rng)];
  EXPECT_NEAR(counts[0] / 100'000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 100'000.0, 0.3, 0.01);
  EXPECT_NEAR(counts[2] / 100'000.0, 0.6, 0.01);
}

TEST(RouletteSelection, AllZeroFitnessFallsBackToUniform) {
  const RouletteSelection sel;
  const Population pop = make_pop({0, 0, 0, 0});
  util::Xoshiro256 rng(5);
  std::array<int, 4> counts{};
  for (int i = 0; i < 40'000; ++i) ++counts[sel.select(pop, rng)];
  for (int c : counts) EXPECT_NEAR(c, 10'000, 1'000);
}

TEST(TruncationSelection, OnlyTopFractionSelected) {
  const TruncationSelection sel(0.25);
  const Population pop = make_pop({5, 40, 10, 20, 60, 1, 2, 3});
  util::Xoshiro256 rng(6);
  std::array<int, 8> counts{};
  for (int i = 0; i < 10'000; ++i) ++counts[sel.select(pop, rng)];
  // Top 25% of 8 = the 2 best individuals: indices 4 (60) and 1 (40).
  EXPECT_GT(counts[4], 0);
  EXPECT_GT(counts[1], 0);
  for (std::size_t i : {0u, 2u, 3u, 5u, 6u, 7u}) EXPECT_EQ(counts[i], 0);
}

TEST(TruncationSelection, RejectsBadFraction) {
  EXPECT_THROW(TruncationSelection(0.0), std::invalid_argument);
  EXPECT_THROW(TruncationSelection(1.5), std::invalid_argument);
}

// ---- crossover ----

TEST(SinglePointCrossover, ChildrenAreValidSplices) {
  const SinglePointCrossover op;
  util::Xoshiro256 rng(7);
  const std::uint64_t a = 0;
  const std::uint64_t b = kMask36;
  for (int trial = 0; trial < 200; ++trial) {
    auto [c0, c1] = op.apply(a, b, 36, rng);
    // c0 must be 0...0 then 1...1 (a's head + b's tail), c1 the reverse,
    // with the same cut; together they partition the bits.
    std::size_t cut = 0;
    while (cut < 36 && !bit(c0, cut)) ++cut;
    ASSERT_GE(cut, 1u);
    ASSERT_LT(cut, 36u);
    for (std::size_t i = 0; i < 36; ++i) {
      EXPECT_EQ(bit(c0, i), i >= cut);
      EXPECT_EQ(bit(c1, i), i < cut);
    }
  }
}

TEST(SinglePointCrossover, PreservesPerPositionMultiset) {
  const SinglePointCrossover op;
  util::Xoshiro256 rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = random_genome(rng);
    const std::uint64_t b = random_genome(rng);
    auto [c0, c1] = op.apply(a, b, 36, rng);
    for (std::size_t i = 0; i < 36; ++i) {
      // At every position the children carry exactly the parents' bits.
      EXPECT_EQ(static_cast<int>(bit(c0, i)) + bit(c1, i),
                static_cast<int>(bit(a, i)) + bit(b, i));
    }
  }
}

TEST(TwoPointCrossover, SwapsOnlyMiddleSegment) {
  const TwoPointCrossover op;
  util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = random_genome(rng);
    const std::uint64_t b = random_genome(rng);
    auto [c0, c1] = op.apply(a, b, 36, rng);
    // Each child position comes from one parent, consistently paired.
    for (std::size_t i = 0; i < 36; ++i) {
      const bool from_a = bit(c0, i) == bit(a, i) && bit(c1, i) == bit(b, i);
      const bool from_b = bit(c0, i) == bit(b, i) && bit(c1, i) == bit(a, i);
      EXPECT_TRUE(from_a || from_b);
    }
  }
}

TEST(UniformCrossover, MixesRoughlyHalf) {
  const UniformCrossover op;
  util::Xoshiro256 rng(10);
  const std::uint64_t a = 0;
  const std::uint64_t b = ~std::uint64_t{0};
  std::size_t swapped = 0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    auto [c0, c1] = op.apply(a, b, 64, rng);
    swapped += static_cast<std::size_t>(std::popcount(c0));
    // Complementarity: c1 = ~c0 for these parents.
    EXPECT_EQ(std::popcount(c0) + std::popcount(c1), 64);
  }
  EXPECT_NEAR(static_cast<double>(swapped) / (64.0 * kTrials), 0.5, 0.05);
}

TEST(Crossover, WidthOutsideRangeThrows) {
  util::Xoshiro256 rng(12);
  for (const Crossover& op : {Crossover(SinglePointCrossover()),
                              Crossover(TwoPointCrossover()),
                              Crossover(UniformCrossover())}) {
    std::visit(
        [&](const auto& xo) {
          EXPECT_THROW((void)xo.apply(0, 1, 1, rng), std::invalid_argument);
          EXPECT_THROW((void)xo.apply(0, 0, 65, rng), std::invalid_argument);
        },
        op);
  }
}

TEST(Crossover, MismatchedWidthsThrow) {
  const SinglePointCrossover op;
  util::Xoshiro256 rng(11);
  // A 9-bit genome crossed in an 8-bit population.
  EXPECT_THROW((void)op.apply(0, std::uint64_t{1} << 8, 8, rng),
               std::invalid_argument);
}

// ---- mutation ----

TEST(ExactCountMutation, FlipsAtMostKBitsWithMatchingParity) {
  util::Xoshiro256 rng(12);
  const ExactCountMutation op(15);
  for (int trial = 0; trial < 100; ++trial) {
    Population pop;
    for (int i = 0; i < 32; ++i) {
      pop.push_back(Individual{Genome{random_genome(rng)}, 0});
    }
    const Population before = pop;
    op.apply(pop, 36, rng);
    std::size_t flipped = 0;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      flipped += static_cast<std::size_t>(
          std::popcount(pop[i].genome.to_u64() ^ before[i].genome.to_u64()));
    }
    EXPECT_LE(flipped, 15u);
    EXPECT_EQ(flipped % 2, 15u % 2);  // double-hits cancel in pairs
  }
}

TEST(ExactCountMutation, ZeroCountIsIdentity) {
  util::Xoshiro256 rng(13);
  const ExactCountMutation op(0);
  Population pop = {Individual{Genome{random_genome(rng)}, 0}};
  const Population before = pop;
  op.apply(pop, 36, rng);
  EXPECT_EQ(pop[0].genome, before[0].genome);
}

TEST(PerBitMutation, RateIsRespected) {
  util::Xoshiro256 rng(14);
  const PerBitMutation op(util::Prob8::from_double(0.25));
  std::size_t flipped = 0;
  constexpr int kTrials = 500;
  for (int t = 0; t < kTrials; ++t) {
    Population pop = {Individual{Genome{}, 0}};
    op.apply(pop, 36, rng);
    flipped += static_cast<std::size_t>(std::popcount(pop[0].genome.to_u64()));
  }
  EXPECT_NEAR(static_cast<double>(flipped) / (36.0 * kTrials), 0.25, 0.02);
}

// ---- engine ----

unsigned onemax(std::uint64_t g) {
  return static_cast<unsigned>(std::popcount(g));
}

TEST(GaEngine, SolvesOneMax) {
  GaParams params;
  params.genome_bits = 36;
  GaEngine engine(params, onemax);
  util::Xoshiro256 rng(15);
  const RunResult r = engine.run(rng, 20'000, 36u);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best.fitness, 36u);
  EXPECT_EQ(std::popcount(r.best.genome.to_u64()), 36);
}

TEST(GaEngine, SolvesGaitProblemWithPaperParameters) {
  GaEngine engine(GaParams{}, [](std::uint64_t g) {
    return fitness::score(g);
  });
  util::Xoshiro256 rng(16);
  const RunResult r = engine.run(rng, 50'000, 60u);
  EXPECT_TRUE(r.reached_target);
  EXPECT_TRUE(fitness::is_max_fitness(r.best.genome.to_u64()));
}

TEST(GaEngine, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    GaEngine engine(GaParams{}, [](std::uint64_t g) {
      return fitness::score(g);
    });
    util::Xoshiro256 rng(seed);
    return engine.run(rng, 50'000, 60u);
  };
  const RunResult a = run(99);
  const RunResult b = run(99);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.best.genome, b.best.genome);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(GaEngine, HistoryTracksBestEverMonotonically) {
  GaEngine engine(GaParams{}, [](std::uint64_t g) {
    return fitness::score(g);
  });
  util::Xoshiro256 rng(17);
  const RunResult r = engine.run(rng, 300, std::nullopt, true);
  ASSERT_FALSE(r.history.empty());
  unsigned last = 0;
  for (const auto& gs : r.history) {
    EXPECT_GE(gs.best_ever_fitness, last);
    EXPECT_LE(gs.worst_fitness, gs.best_fitness);
    EXPECT_GE(gs.mean_fitness, gs.worst_fitness);
    EXPECT_LE(gs.mean_fitness, gs.best_fitness);
    last = gs.best_ever_fitness;
  }
}

TEST(GaEngine, ElitismKeepsBestInPopulation) {
  GaParams params;
  params.elitism = true;
  GaEngine engine(params, onemax);
  util::Xoshiro256 rng(18);
  Population pop = engine.make_initial_population(rng);
  for (int gen = 0; gen < 50; ++gen) {
    unsigned best_before = 0;
    for (const auto& ind : pop) best_before = std::max(best_before, ind.fitness);
    engine.step_generation(pop, rng);
    unsigned best_after = 0;
    for (const auto& ind : pop) best_after = std::max(best_after, ind.fitness);
    EXPECT_GE(best_after, best_before);
  }
}

TEST(GaEngine, PopulationSizeIsStable) {
  GaEngine engine(GaParams{}, onemax);
  util::Xoshiro256 rng(19);
  Population pop = engine.make_initial_population(rng);
  EXPECT_EQ(pop.size(), 32u);
  engine.step_generation(pop, rng);
  EXPECT_EQ(pop.size(), 32u);
}

TEST(GaEngine, RejectsBadParameters) {
  GaParams odd;
  odd.population_size = 7;
  EXPECT_THROW(GaEngine(odd, onemax), std::invalid_argument);
  GaParams tiny;
  tiny.genome_bits = 1;
  EXPECT_THROW(GaEngine(tiny, onemax), std::invalid_argument);
  EXPECT_THROW(GaEngine(GaParams{}, FitnessFn{}), std::invalid_argument);
}

TEST(GaEngine, RejectsGenomesWiderThan64Bits) {
  GaParams wide;
  wide.genome_bits = 65;
  EXPECT_THROW(GaEngine(wide, onemax), std::invalid_argument);
  wide.genome_bits = 1000;
  EXPECT_THROW(GaEngine(wide, onemax), std::invalid_argument);
  GaParams full;
  full.genome_bits = 64;
  GaEngine engine(full, onemax);
  util::Xoshiro256 rng(23);
  const RunResult r = engine.run(rng, 20'000, 64u);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best.genome.to_u64(), ~std::uint64_t{0});
}

TEST(GaEngine, StepGenerationRejectsForeignPopulationSize) {
  GaEngine engine(GaParams{}, onemax);
  util::Xoshiro256 rng(24);
  Population pop = engine.make_initial_population(rng);
  pop.pop_back();
  EXPECT_THROW(engine.step_generation(pop, rng), std::invalid_argument);
}

TEST(GaEngine, InitialGenomesFitTheWidth) {
  GaParams params;
  params.genome_bits = 5;
  GaEngine engine(params, onemax);
  util::Xoshiro256 rng(25);
  Population pop = engine.make_initial_population(rng);
  for (int gen = 0; gen < 20; ++gen) {
    for (const auto& ind : pop) {
      ASSERT_EQ(ind.genome.to_u64() & ~genome_mask(5), 0u);
    }
    engine.step_generation(pop, rng);
  }
}

// The ga counters advance by exactly the run's totals (flushed once per
// run_from, including a suspended-and-resumed run), the gauges describe
// the final state, and telemetry never changes the evolved genome.
TEST(GaTelemetry, CountersMatchRunTotalsAndObsIsInert) {
  auto& reg = obs::registry();
  auto counter = [&](const char* name) { return reg.counter(name).value(); };
  auto fitness = [](std::uint64_t g) { return fitness::score(g); };

  const std::uint64_t gens0 = counter("leo_ga_generations_total");
  const std::uint64_t evals0 = counter("leo_ga_evaluations_total");
  const std::uint64_t runs0 = counter("leo_ga_runs_total");
  GaEngine engine(GaParams{}, fitness);
  util::Xoshiro256 rng(2024);
  EngineState state = engine.start(rng);
  (void)engine.run_from(state, rng, 7, 60u);  // suspended at generation 7
  const RunResult on = engine.run_from(state, rng, 100'000, 60u);
  ASSERT_TRUE(on.reached_target);
  ASSERT_GT(on.generations, 7u);
  EXPECT_EQ(counter("leo_ga_generations_total") - gens0, on.generations);
  EXPECT_EQ(counter("leo_ga_evaluations_total") - evals0, on.evaluations);
  EXPECT_EQ(counter("leo_ga_runs_total") - runs0, 2u);
  EXPECT_EQ(reg.gauge("leo_ga_generation").value(),
            static_cast<double>(on.generations));
  EXPECT_EQ(reg.gauge("leo_ga_best_ever_fitness").value(),
            static_cast<double>(on.best.fitness));
  EXPECT_EQ(reg.gauge("leo_ga_best_fitness").value(), 60.0);

  obs::set_enabled(false);
  GaEngine quiet(GaParams{}, fitness);
  util::Xoshiro256 quiet_rng(2024);
  const RunResult off = quiet.run(quiet_rng, 100'000, 60u);
  const std::uint64_t gens_after_off = counter("leo_ga_generations_total");
  obs::set_enabled(true);
  EXPECT_EQ(gens_after_off - gens0, on.generations);  // nothing recorded
  EXPECT_EQ(off.best.genome, on.best.genome);
  EXPECT_EQ(off.generations, on.generations);
  EXPECT_EQ(off.evaluations, on.evaluations);
}

TEST(GaEngine, AlternativeOperatorsStillConverge) {
  GaEngine engine(GaParams{}, [](std::uint64_t g) {
    return fitness::score(g);
  });
  engine.set_selection(TruncationSelection(0.5));
  engine.set_crossover(UniformCrossover());
  engine.set_mutation(PerBitMutation(
      util::Prob8::from_double(0.02)));
  util::Xoshiro256 rng(20);
  const RunResult r = engine.run(rng, 50'000, 60u);
  EXPECT_TRUE(r.reached_target);
}

// ---- golden trajectories ----

struct GoldenRun {
  std::uint64_t seed;
  std::uint64_t genome;
  std::uint64_t generations;
  std::uint64_t evaluations;
};

constexpr GoldenRun kGoldenSeeds[] = {
#include "golden_ga_seeds.inc"
};

TEST(GaGolden, PaperConfigSeeds1To1000) {
  const unsigned target = fitness::FitnessSpec{}.max_score();
  ASSERT_EQ(std::size(kGoldenSeeds), 1000u);
  for (const GoldenRun& g : kGoldenSeeds) {
    GaEngine engine(GaParams{}, [](std::uint64_t genome) {
      return fitness::score(genome);
    });
    util::Xoshiro256 rng(g.seed);
    const RunResult r = engine.run(rng, 100'000, target);
    ASSERT_TRUE(r.reached_target) << "seed " << g.seed;
    ASSERT_EQ(r.best.genome.to_u64(), g.genome) << "seed " << g.seed;
    ASSERT_EQ(r.generations, g.generations) << "seed " << g.seed;
    ASSERT_EQ(r.evaluations, g.evaluations) << "seed " << g.seed;
  }
}

// Every operator combination (crossover x mutation x selection x elitism)
// keeps its exact trajectory: the same draws in the same order.
TEST(GaGolden, OperatorCombinations) {
  struct Case {
    unsigned crossover;  // 0 single-point, 1 two-point, 2 uniform
    unsigned mutation;   // 0 exact-count(15), 1 per-bit(0.02)
    unsigned selection;  // 0 tournament(0.8), 1 roulette, 2 truncation(0.5)
    bool elitism;
    std::uint64_t genome;
    std::uint64_t generations;
    std::uint64_t evaluations;
  };
  constexpr Case kCases[] = {
    {0, 0, 0, false, 0x01f8ff018, 16, 544},
    {0, 0, 0, true, 0x8dfe38803, 30, 992},
    {0, 0, 1, false, 0xe006c77c0, 1452, 46496},
    {0, 0, 1, true, 0x7c0f006c7, 62, 2016},
    {0, 0, 2, false, 0x1fb8d8018, 14, 480},
    {0, 0, 2, true, 0x0c0e1cee3, 12, 416},
    {0, 1, 0, false, 0x0c3038e3f, 48, 1568},
    {0, 1, 0, true, 0x8dc0fc0d8, 76, 2464},
    {0, 1, 1, false, 0x8c7e38623, 877, 28096},
    {0, 1, 1, true, 0x603723607, 27, 896},
    {0, 1, 2, false, 0x8ff8d8138, 27, 896},
    {0, 1, 2, true, 0x600e236e7, 18, 608},
    {1, 0, 0, false, 0x1dc7f88e0, 56, 1824},
    {1, 0, 0, true, 0x13c6ff1c0, 19, 640},
    {1, 0, 1, false, 0xf03723e27, 332, 10656},
    {1, 0, 1, true, 0x0c46d86e0, 47, 1536},
    {1, 0, 2, false, 0x9189fb1dc, 17, 576},
    {1, 0, 2, true, 0xec3020e1f, 574, 18400},
    {1, 1, 0, false, 0x0d87dc0e0, 127, 4096},
    {1, 1, 0, true, 0xe1c6e38e4, 16, 544},
    {1, 1, 1, false, 0x723823e3b, 411, 13184},
    {1, 1, 1, true, 0x0c4e3c6e7, 39, 1280},
    {1, 1, 2, false, 0xf1f00391b, 172, 5536},
    {1, 1, 2, true, 0x1f87380e7, 24, 800},
    {2, 0, 0, false, 0x1df0dc83c, 144, 4640},
    {2, 0, 0, true, 0x63fe03903, 11, 384},
    {2, 0, 1, false, 0x1db13811b, 1190, 38112},
    {2, 0, 1, true, 0x61b12391b, 1190, 38112},
    {2, 0, 2, false, 0x7187e30c4, 16, 544},
    {2, 0, 2, true, 0xe1bf27103, 90, 2912},
    {2, 1, 0, false, 0x6206036e7, 292, 9376},
    {2, 1, 0, true, 0xe0700361b, 30, 992},
    {2, 1, 1, false, 0x7e700471f, 159, 5120},
    {2, 1, 1, true, 0xf186e30c0, 37, 1216},
    {2, 1, 2, false, 0x7008c77dc, 15, 512},
    {2, 1, 2, true, 0xf03823f3b, 10, 352},
  };
  for (const Case& c : kCases) {
    GaParams params;
    params.elitism = c.elitism;
    GaEngine engine(params, [](std::uint64_t g) { return fitness::score(g); });
    if (c.crossover == 1) {
      engine.set_crossover(TwoPointCrossover());
    }
    if (c.crossover == 2) {
      engine.set_crossover(UniformCrossover());
    }
    if (c.mutation == 1) {
      engine.set_mutation(
          PerBitMutation(util::Prob8::from_double(0.02)));
    }
    if (c.selection == 1) {
      engine.set_selection(RouletteSelection());
    }
    if (c.selection == 2) {
      engine.set_selection(TruncationSelection(0.5));
    }
    util::Xoshiro256 rng(100 + c.crossover * 12 + c.mutation * 6 +
                         c.selection * 2 + (c.elitism ? 1u : 0u));
    const RunResult r = engine.run(rng, 3000, 60u);
    const std::string where = "case " + std::to_string(c.crossover) + "/" +
                              std::to_string(c.mutation) + "/" +
                              std::to_string(c.selection) + "/" +
                              std::to_string(c.elitism);
    EXPECT_EQ(r.best.genome.to_u64(), c.genome) << where;
    EXPECT_EQ(r.generations, c.generations) << where;
    EXPECT_EQ(r.evaluations, c.evaluations) << where;
  }
}

// ---- diversity ----

TEST(Diversity, IdenticalPopulationIsZero) {
  Population pop;
  for (int i = 0; i < 8; ++i) pop.push_back(Individual{Genome{5}, 0});
  EXPECT_DOUBLE_EQ(mean_pairwise_hamming(pop), 0.0);
  EXPECT_DOUBLE_EQ(mean_bit_entropy(pop, 36), 0.0);
}

TEST(Diversity, TwoComplementaryGenomes) {
  Population pop;
  pop.push_back(Individual{Genome{0}, 0});
  pop.push_back(Individual{Genome{kMask36}, 0});
  EXPECT_DOUBLE_EQ(mean_pairwise_hamming(pop), 36.0);
  EXPECT_DOUBLE_EQ(mean_bit_entropy(pop, 36), 1.0);
}

TEST(Diversity, UniformRandomPopulationNearHalfWidth) {
  util::Xoshiro256 rng(22);
  Population pop;
  for (int i = 0; i < 64; ++i) {
    pop.push_back(Individual{Genome{random_genome(rng)}, 0});
  }
  EXPECT_NEAR(mean_pairwise_hamming(pop), 18.0, 2.0);
  EXPECT_GT(mean_bit_entropy(pop, 36), 0.8);
}

TEST(Diversity, EdgeCases) {
  EXPECT_DOUBLE_EQ(mean_pairwise_hamming({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_bit_entropy({}, 36), 0.0);
  Population one = {Individual{Genome{1}, 0}};
  EXPECT_DOUBLE_EQ(mean_pairwise_hamming(one), 0.0);
}

TEST(Diversity, MutationSustainsDiversityUnderSelection) {
  // The GAP's design point: without mutation, selection+crossover drive
  // the population toward genotypic collapse; 15 flips/generation keep a
  // diversity floor. Run past convergence and compare.
  auto final_diversity = [](unsigned mutations) {
    GaParams params;
    params.mutations_per_generation = mutations;
    GaEngine engine(params, [](std::uint64_t g) {
      return fitness::score(g);
    });
    util::Xoshiro256 rng(33);
    Population pop = engine.make_initial_population(rng);
    for (int gen = 0; gen < 300; ++gen) engine.step_generation(pop, rng);
    return mean_pairwise_hamming(pop);
  };
  const double with_mutation = final_diversity(15);
  const double without_mutation = final_diversity(0);
  EXPECT_LT(without_mutation, 0.5);  // collapsed
  EXPECT_GT(with_mutation, 1.0);     // sustained
}

TEST(Diversity, RecordedInHistory) {
  GaEngine engine(GaParams{}, [](std::uint64_t g) {
    return fitness::score(g);
  });
  util::Xoshiro256 rng(44);
  const RunResult r = engine.run(rng, 50, std::nullopt, true);
  ASSERT_FALSE(r.history.empty());
  EXPECT_GT(r.history.front().diversity, 10.0);  // random start: ~width/2
}

}  // namespace
}  // namespace leo::ga
