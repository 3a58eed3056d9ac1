// Tests for the exhaustive-search and random-search baselines.
#include "ga/baselines.hpp"

#include <gtest/gtest.h>

#include "fitness/rules.hpp"
#include "ga/engine.hpp"
#include "genome/known_gaits.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace leo::ga {
namespace {

unsigned gait_fitness(std::uint64_t g) { return fitness::score(g); }

TEST(ExhaustiveScan, FindsBestInSmallRange) {
  // Plant the tripod genome inside a small scan window.
  const std::uint64_t tripod = genome::tripod_gait().to_bits();
  const ScanResult r =
      exhaustive_scan(tripod - 50, tripod + 50, gait_fitness, 60u);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best_fitness, 60u);
  EXPECT_EQ(r.first_max_at, tripod);
  EXPECT_EQ(r.evaluated, 51u);  // stops at the hit
}

TEST(ExhaustiveScan, WithoutTargetScansEverything) {
  const ScanResult r = exhaustive_scan(0, 4096, gait_fitness, std::nullopt);
  EXPECT_EQ(r.evaluated, 4096u);
  EXPECT_FALSE(r.reached_target);
  EXPECT_GT(r.best_fitness, 0u);
}

TEST(ExhaustiveScan, TracksBestSeen) {
  // Over the genomes 0..2^12, the best must equal a brute-force max.
  const ScanResult r = exhaustive_scan(0, 1u << 12, gait_fitness, std::nullopt);
  unsigned best = 0;
  for (std::uint64_t g = 0; g < (1u << 12); ++g) {
    best = std::max(best, gait_fitness(g));
  }
  EXPECT_EQ(r.best_fitness, best);
  EXPECT_EQ(gait_fitness(r.best_genome), best);
}

TEST(ExhaustiveScan, EmptyRange) {
  const ScanResult r = exhaustive_scan(10, 10, gait_fitness, 60u);
  EXPECT_EQ(r.evaluated, 0u);
  EXPECT_FALSE(r.reached_target);
}

TEST(ExhaustiveScan, BackwardRangeThrows) {
  EXPECT_THROW((void)exhaustive_scan(10, 5, gait_fitness, std::nullopt),
               std::invalid_argument);
}

TEST(RandomSearch, EventuallyHitsMaxFitness) {
  // Expected draws to a max-fitness genome ~ 8e5; give it plenty.
  util::Xoshiro256 rng(42);
  const ScanResult r = random_search(36, 20'000'000, gait_fitness, 60u, rng);
  EXPECT_TRUE(r.reached_target);
  EXPECT_TRUE(fitness::is_max_fitness(r.best_genome));
  EXPECT_GT(r.evaluated, 1000u);  // sanity: it is genuinely rare
}

TEST(RandomSearch, RespectsDrawBudget) {
  util::Xoshiro256 rng(43);
  const ScanResult r = random_search(36, 100, gait_fitness, 61u, rng);
  EXPECT_FALSE(r.reached_target);
  EXPECT_EQ(r.evaluated, 100u);
}

TEST(RandomSearch, RejectsBadWidth) {
  util::Xoshiro256 rng(44);
  EXPECT_THROW((void)random_search(0, 10, gait_fitness, 60u, rng),
               std::invalid_argument);
  EXPECT_THROW((void)random_search(65, 10, gait_fitness, 60u, rng),
               std::invalid_argument);
}

TEST(Baselines, GaBeatsRandomSearchOnEvaluations) {
  // The paper's core quantitative story (E2): evolution needs orders of
  // magnitude fewer evaluations than undirected search.
  GaEngine engine(GaParams{}, [](std::uint64_t g) {
    return fitness::score(g);
  });
  util::RunningStats ga_evals;
  util::RunningStats rs_evals;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Xoshiro256 rng_ga(100 + seed);
    const RunResult ga = engine.run(rng_ga, 100'000, 60u);
    ASSERT_TRUE(ga.reached_target);
    ga_evals.add(static_cast<double>(ga.evaluations));

    util::Xoshiro256 rng_rs(200 + seed);
    const ScanResult rs =
        random_search(36, 50'000'000, gait_fitness, 60u, rng_rs);
    ASSERT_TRUE(rs.reached_target);
    rs_evals.add(static_cast<double>(rs.evaluated));
  }
  EXPECT_LT(ga_evals.mean() * 20.0, rs_evals.mean())
      << "GA mean evals " << ga_evals.mean() << " vs random "
      << rs_evals.mean();
}

}  // namespace
}  // namespace leo::ga
