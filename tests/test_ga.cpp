// Tests for the software GA library (selection, crossover, mutation,
// engine) — the reference the hardware GAP is validated against.
#include "ga/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <string>

#include "fitness/landscape.hpp"
#include "fitness/rules.hpp"
#include "ga/diversity.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace leo::ga {
namespace {

constexpr std::uint64_t kMask36 = genome::kGenomeMask;

bool bit(std::uint64_t genome, std::size_t i) { return (genome >> i) & 1; }

/// A uniform random 36-bit genome (one next_u64() draw).
std::uint64_t random_genome(util::Xoshiro256& rng) {
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

// Pins the draw order (a, b, then the byte) and the tie rule locally: a
// replaying copy of the generator predicts every pick.
TEST(TournamentSelection, ReplaysItsThreeDraws) {
  // Ties (two 7s, two 12s, two 30s) among distinct values.
  const Population pop = make_pop({7, 30, 7, 12, 30, 0, 55, 12});
  for (const unsigned t : {0u, 205u, 255u}) {
    const TournamentSelection sel(util::Prob8(static_cast<std::uint8_t>(t)));
    util::Xoshiro256 rng(40 + t);
    int mixed = 0;
    int fitter_picks = 0;
    for (int i = 0; i < 20'000; ++i) {
      util::Xoshiro256 replay = rng;
      const std::size_t a = replay.next_below(pop.size());
      const std::size_t b = replay.next_below(pop.size());
      const unsigned byte = replay.next_u64() & 0xFF;
      const std::size_t fitter = pop[a].fitness >= pop[b].fitness ? a : b;
      const std::size_t weaker = fitter == a ? b : a;
      const std::size_t picked = sel.select(pop, rng);
      ASSERT_EQ(picked, byte < t ? fitter : weaker)
          << "t " << t << " call " << i << " a " << a << " b " << b;
      ASSERT_EQ(rng.state(), replay.state()) << "t " << t << " call " << i;
      if (pop[a].fitness != pop[b].fitness) {
        ++mixed;
        fitter_picks += picked == fitter;
      }
    }
    // Over distinct-fitness pairs the fitter one wins at rate t/256.
    EXPECT_NEAR(static_cast<double>(fitter_picks) / mixed, t / 256.0, 0.02)
        << "t " << t;
  }
}

TEST(TournamentSelection, EmptyPopulationThrows) {
  const TournamentSelection sel(util::Prob8(200));
  Population empty;
  util::Xoshiro256 rng(3);
  EXPECT_THROW((void)sel.select(empty, rng), std::invalid_argument);
}

// ---- crossover ----

TEST(SinglePointCrossover, ChildrenAreValidSplices) {
  const SinglePointCrossover op;
  util::Xoshiro256 rng(7);
  const std::uint64_t a = 0;
  const std::uint64_t b = kMask36;
  for (int trial = 0; trial < 200; ++trial) {
    auto [c0, c1] = op.apply(a, b, rng);
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
    auto [c0, c1] = op.apply(a, b, rng);
    for (std::size_t i = 0; i < 36; ++i) {
      // At every position the children carry exactly the parents' bits.
      EXPECT_EQ(static_cast<int>(bit(c0, i)) + bit(c1, i),
                static_cast<int>(bit(a, i)) + bit(b, i));
    }
  }
}

TEST(Crossover, MismatchedWidthsThrow) {
  const SinglePointCrossover op;
  util::Xoshiro256 rng(11);
  // A 37-bit parent (bit 36 set) crossed in the 36-bit population.
  const std::uint64_t wide = std::uint64_t{1} << 36;
  EXPECT_THROW((void)op.apply(0, wide, rng), std::invalid_argument);
  EXPECT_THROW((void)op.apply(wide, 0, rng), std::invalid_argument);
  EXPECT_THROW((void)op.apply(~std::uint64_t{0}, kMask36, rng),
               std::invalid_argument);
  EXPECT_NO_THROW((void)op.apply(kMask36, kMask36, rng));
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
    op.apply(pop, rng);
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
  op.apply(pop, rng);
  EXPECT_EQ(pop[0].genome, before[0].genome);
}

// ---- engine ----

/// One whole run: start() then run_from() to `max_generations`.
struct GaRun {
  EngineState state;
  bool reached_target = false;
};

GaRun run_ga(GaEngine& engine, std::uint64_t seed,
             std::uint64_t max_generations) {
  util::Xoshiro256 rng(seed);
  GaRun r;
  r.state = engine.start(rng);
  r.reached_target = engine.run_from(r.state, rng, max_generations);
  return r;
}

TEST(GaEngine, SolvesGaitProblemWithPaperParameters) {
  GaEngine engine(GaParams{}, fitness::kDefaultSpec);
  const GaRun r = run_ga(engine, 16, 50'000);
  EXPECT_TRUE(r.reached_target);
  EXPECT_TRUE(fitness::is_max_fitness(r.state.best.genome.to_u64()));
}

TEST(GaEngine, DeterministicGivenSeed) {
  GaEngine engine_a(GaParams{}, fitness::kDefaultSpec);
  GaEngine engine_b(GaParams{}, fitness::kDefaultSpec);
  const GaRun a = run_ga(engine_a, 99, 50'000);
  const GaRun b = run_ga(engine_b, 99, 50'000);
  EXPECT_EQ(a.state.generation, b.state.generation);
  EXPECT_EQ(a.state.best.genome, b.state.best.genome);
  EXPECT_EQ(a.state.evaluations, b.state.evaluations);
}

TEST(GaEngine, HistoryTracksBestEverMonotonically) {
  GaEngine engine(GaParams{}, fitness::kDefaultSpec, /*track_history=*/true);
  const GaRun r = run_ga(engine, 17, 300);
  ASSERT_FALSE(r.state.history.empty());
  unsigned last = 0;
  for (const auto& gs : r.state.history) {
    EXPECT_GE(gs.best_ever_fitness, last);
    EXPECT_LE(gs.worst_fitness, gs.best_fitness);
    EXPECT_GE(gs.mean_fitness, gs.worst_fitness);
    EXPECT_LE(gs.mean_fitness, gs.best_fitness);
    last = gs.best_ever_fitness;
  }
}

TEST(GaEngine, PopulationSizeIsStable) {
  GaEngine engine(GaParams{}, fitness::kDefaultSpec);
  util::Xoshiro256 rng(19);
  Population pop = engine.make_initial_population(rng);
  EXPECT_EQ(pop.size(), 32u);
  engine.step_generation(pop, rng);
  EXPECT_EQ(pop.size(), 32u);
}

TEST(GaEngine, RejectsBadParameters) {
  GaParams odd;
  odd.population_size = 7;
  EXPECT_THROW(GaEngine(odd, fitness::kDefaultSpec), std::invalid_argument);
}

TEST(GaEngine, StepGenerationRejectsForeignPopulationSize) {
  GaEngine engine(GaParams{}, fitness::kDefaultSpec);
  util::Xoshiro256 rng(24);
  Population pop = engine.make_initial_population(rng);
  pop.pop_back();
  EXPECT_THROW(engine.step_generation(pop, rng), std::invalid_argument);
}

// A generation that throws part-way (here: the first crossover that fires
// meets a genome with a bit above the genome mask) leaves the caller's
// population and generator as they were, and a later step of the same
// engine is unaffected by the half-written intermediate buffer.
TEST(GaEngine, ThrowingGenerationLeavesPopulationAndRngUnchanged) {
  GaEngine engine(GaParams{}, fitness::kDefaultSpec);
  util::Xoshiro256 rng(26);
  Population pop = engine.make_initial_population(rng);
  const Population valid = pop;
  for (auto& ind : pop) ind.genome.bits |= std::uint64_t{1} << 40;
  const Population before = pop;
  const util::Xoshiro256::State state = rng.state();

  EXPECT_THROW(engine.step_generation(pop, rng), std::invalid_argument);
  EXPECT_EQ(rng.state(), state);
  ASSERT_EQ(pop.size(), before.size());
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_EQ(pop[i].genome, before[i].genome) << "individual " << i;
    EXPECT_EQ(pop[i].fitness, before[i].fitness) << "individual " << i;
  }

  GaEngine fresh(GaParams{}, fitness::kDefaultSpec);
  Population a = valid;
  Population b = valid;
  util::Xoshiro256 rng_a = rng;
  util::Xoshiro256 rng_b = rng;
  engine.step_generation(a, rng_a);
  fresh.step_generation(b, rng_b);
  EXPECT_EQ(rng_a.state(), rng_b.state());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].genome, b[i].genome) << "individual " << i;
  }
}

TEST(GaEngine, InitialGenomesFitTheWidth) {
  GaEngine engine(GaParams{}, fitness::kDefaultSpec);
  util::Xoshiro256 rng(25);
  Population pop = engine.make_initial_population(rng);
  for (int gen = 0; gen < 20; ++gen) {
    for (const auto& ind : pop) {
      ASSERT_EQ(ind.genome.to_u64() & ~kMask36, 0u);
    }
    engine.step_generation(pop, rng);
  }
}

// The paper's core quantitative story (E2): evolution needs orders of
// magnitude fewer evaluations than undirected search, whose expected cost
// is exact (one over the max-fitness density).
TEST(Baselines, GaBeatsRandomSearchOnEvaluations) {
  GaEngine engine(GaParams{}, fitness::kDefaultSpec);
  double evaluations = 0.0;
  constexpr std::uint64_t kSeeds = 5;
  for (std::uint64_t seed = 100; seed < 100 + kSeeds; ++seed) {
    const GaRun r = run_ga(engine, seed, 100'000);
    ASSERT_TRUE(r.reached_target) << "seed " << seed;
    evaluations += static_cast<double>(r.state.evaluations);
  }
  const double mean = evaluations / kSeeds;
  EXPECT_LT(mean * 20.0, fitness::expected_random_draws_to_max())
      << "GA mean evals " << mean << " vs random "
      << fitness::expected_random_draws_to_max();
}

// The ga counters advance by exactly the run's totals (flushed once per
// run_from, including a suspended-and-resumed run), and telemetry never
// changes the evolved genome.
TEST(GaTelemetry, CountersMatchRunTotalsAndObsIsInert) {
  auto& reg = obs::registry();
  auto counter = [&](const char* name) { return reg.counter(name).value(); };

  const std::uint64_t gens0 = counter("leo_ga_generations_total");
  const std::uint64_t evals0 = counter("leo_ga_evaluations_total");
  const std::uint64_t runs0 = counter("leo_ga_runs_total");
  GaEngine engine(GaParams{}, fitness::kDefaultSpec);
  util::Xoshiro256 rng(2024);
  EngineState on = engine.start(rng);
  (void)engine.run_from(on, rng, 7);  // suspended at generation 7
  ASSERT_TRUE(engine.run_from(on, rng, 100'000));
  ASSERT_GT(on.generation, 7u);
  EXPECT_EQ(counter("leo_ga_generations_total") - gens0, on.generation);
  EXPECT_EQ(counter("leo_ga_evaluations_total") - evals0, on.evaluations);
  EXPECT_EQ(counter("leo_ga_runs_total") - runs0, 2u);

  obs::set_enabled(false);
  GaEngine quiet(GaParams{}, fitness::kDefaultSpec);
  const GaRun off = run_ga(quiet, 2024, 100'000);
  const std::uint64_t gens_after_off = counter("leo_ga_generations_total");
  obs::set_enabled(true);
  EXPECT_EQ(gens_after_off - gens0, on.generation);  // nothing recorded
  EXPECT_EQ(off.state.best.genome, on.best.genome);
  EXPECT_EQ(off.state.generation, on.generation);
  EXPECT_EQ(off.state.evaluations, on.evaluations);
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
  ASSERT_EQ(std::size(kGoldenSeeds), 1000u);
  for (const GoldenRun& g : kGoldenSeeds) {
    GaEngine engine(GaParams{}, fitness::kDefaultSpec);
    const GaRun r = run_ga(engine, g.seed, 100'000);
    ASSERT_TRUE(r.reached_target) << "seed " << g.seed;
    ASSERT_EQ(r.state.best.genome.to_u64(), g.genome) << "seed " << g.seed;
    ASSERT_EQ(r.state.generation, g.generations) << "seed " << g.seed;
    ASSERT_EQ(r.state.evaluations, g.evaluations) << "seed " << g.seed;
  }
}

// The paper's operators keep their exact trajectory: the same draws in
// the same order.
TEST(GaGolden, PaperOperatorsSeed100Trajectory) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t genome;
    std::uint64_t generations;
    std::uint64_t evaluations;
  };
  constexpr Case kCases[] = {
    {100, 0x01f8ff018, 16, 544},
  };
  for (const Case& c : kCases) {
    GaEngine engine(GaParams{}, fitness::kDefaultSpec);
    const GaRun r = run_ga(engine, c.seed, 3000);
    const std::string where = "seed " + std::to_string(c.seed);
    EXPECT_EQ(r.state.best.genome.to_u64(), c.genome) << where;
    EXPECT_EQ(r.state.generation, c.generations) << where;
    EXPECT_EQ(r.state.evaluations, c.evaluations) << where;
  }
}

// ---- diversity ----

TEST(Diversity, IdenticalPopulationIsZero) {
  Population pop;
  for (int i = 0; i < 8; ++i) pop.push_back(Individual{Genome{5}, 0});
  EXPECT_DOUBLE_EQ(mean_pairwise_hamming(pop), 0.0);
}

TEST(Diversity, TwoComplementaryGenomes) {
  Population pop;
  pop.push_back(Individual{Genome{0}, 0});
  pop.push_back(Individual{Genome{kMask36}, 0});
  EXPECT_DOUBLE_EQ(mean_pairwise_hamming(pop), 36.0);
}

TEST(Diversity, UniformRandomPopulationNearHalfWidth) {
  util::Xoshiro256 rng(22);
  Population pop;
  for (int i = 0; i < 64; ++i) {
    pop.push_back(Individual{Genome{random_genome(rng)}, 0});
  }
  EXPECT_NEAR(mean_pairwise_hamming(pop), 18.0, 2.0);
}

TEST(Diversity, EdgeCases) {
  EXPECT_DOUBLE_EQ(mean_pairwise_hamming({}), 0.0);
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
    GaEngine engine(params, fitness::kDefaultSpec);
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
  GaEngine engine(GaParams{}, fitness::kDefaultSpec, /*track_history=*/true);
  const GaRun r = run_ga(engine, 44, 50);
  ASSERT_FALSE(r.state.history.empty());
  EXPECT_GT(r.state.history.front().diversity, 10.0);  // random start: ~width/2
}

}  // namespace
}  // namespace leo::ga
