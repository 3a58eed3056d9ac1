// End-to-end integration: evolution (both backends) feeding the robot
// simulator — the paper's full story in one test binary.
#include "core/evolution_engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "fitness/rules.hpp"
#include "genome/gait_genome.hpp"
#include "robot/walker.hpp"
#include "serve/trials.hpp"

namespace leo::core {
namespace {

TEST(Evolve, SoftwareBackendReachesMaximum) {
  EvolutionConfig config;
  config.backend = Backend::kSoftware;
  config.seed = 7;
  const EvolutionResult r = evolve(config);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best_fitness, 60u);
  EXPECT_TRUE(fitness::is_max_fitness(r.best_genome));
  EXPECT_GT(r.evaluations, 32u);
  EXPECT_EQ(r.clock_cycles, 0u);  // no hardware clock in software mode
  EXPECT_EQ(r.rtl_evaluations, 0u);
  EXPECT_EQ(r.rtl_commits, 0u);
  EXPECT_EQ(r.selxover_cycles, 0u);
}

TEST(Evolve, HardwareBackendReachesMaximumAndReportsCycles) {
  EvolutionConfig config;
  config.backend = Backend::kHardware;
  config.seed = 7;
  const EvolutionResult r = evolve(config);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best_fitness, 60u);
  EXPECT_TRUE(fitness::is_max_fitness(r.best_genome));
  EXPECT_GT(r.clock_cycles, 0u);
  EXPECT_DOUBLE_EQ(r.seconds_at_1mhz,
                   static_cast<double>(r.clock_cycles) / 1.0e6);
  // The pipelined SEL+XOVER phase costs 152 cycles every generation (E7).
  EXPECT_EQ(r.selxover_cycles, 152u * r.generations);
}

TEST(Evolve, HardwareHugeGenerationLimitDoesNotWrapCycleBound) {
  // The hardware run's cycle bound scales with max_generations; a limit
  // near 2^64 must mean "unbounded", not wrap to a bound of a few
  // generations that stops the run early.
  EvolutionConfig config;
  config.backend = Backend::kHardware;
  config.seed = 3;
  const EvolutionResult expected = evolve(config);
  ASSERT_TRUE(expected.reached_target);
  config.max_generations = std::numeric_limits<std::uint64_t>::max();
  const EvolutionResult r = evolve(config);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.generations, expected.generations);
  EXPECT_EQ(r.best_genome, expected.best_genome);
  EXPECT_EQ(r.clock_cycles, expected.clock_cycles);
  EXPECT_EQ(r.evaluations, expected.evaluations);
}

TEST(Evolve, HardwareGenerationBudgetIsAnExactCeiling) {
  // The run stops once generation 20 has been scored, not at a cycle
  // bound guessed from the population size.
  EvolutionConfig config;
  config.backend = Backend::kHardware;
  config.seed = 7;
  const EvolutionResult full = evolve(config);
  ASSERT_TRUE(full.reached_target);
  ASSERT_GT(full.generations, 20u);
  RunControl control;
  control.generation_budget = 20;
  const EvolutionResult r = evolve(config, control);
  EXPECT_FALSE(r.reached_target);
  EXPECT_EQ(r.generations, 20u);
  EXPECT_EQ(r.evaluations, 21u * config.gap.population_size);
  EXPECT_LT(r.clock_cycles, full.clock_cycles);
}

TEST(Evolve, HardwareRejectsATargetAboveTheEightBitScore) {
  // The GAP's score, fitness RAM and best register are 8 bits wide, so a
  // spec whose maximum exceeds 255 could never stop at its target.
  EvolutionConfig config;
  config.backend = Backend::kHardware;
  config.seed = 3;
  config.max_generations = 2000;
  config.spec.w_equilibrium = 40;
  ASSERT_EQ(config.spec.max_score(), 356u);
  EXPECT_THROW((void)evolve(config), std::invalid_argument);
}

TEST(Evolve, DeterministicPerSeedAndBackend) {
  for (const Backend backend : {Backend::kSoftware, Backend::kHardware}) {
    EvolutionConfig config;
    config.backend = backend;
    config.seed = 21;
    const EvolutionResult a = evolve(config);
    const EvolutionResult b = evolve(config);
    EXPECT_EQ(a.generations, b.generations);
    EXPECT_EQ(a.best_genome, b.best_genome);
  }
}

TEST(Evolve, HistoryAvailableOnRequest) {
  EvolutionConfig config;
  config.seed = 3;
  config.track_history = true;
  const EvolutionResult r = evolve(config);
  EXPECT_FALSE(r.history.empty());
  EXPECT_EQ(r.history.size(), r.generations + 1);  // includes generation 0
}

TEST(Evolve, AblatedSpecChangesTarget) {
  EvolutionConfig config;
  config.seed = 5;
  config.spec.use_equilibrium = false;
  const EvolutionResult r = evolve(config);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best_fitness, config.spec.max_score());
}

/// The paper's end-to-end claim (E4): a gait evolved purely from the
/// logic rules propels the robot forward — in both backends. (Strict
/// quasi-static stability is NOT implied by the paper's three rules; see
/// bench_gait_quality for the measured distribution.)
TEST(EndToEnd, EvolvedGaitAdvancesForward) {
  for (const Backend backend : {Backend::kSoftware, Backend::kHardware}) {
    EvolutionConfig config;
    config.backend = backend;
    config.seed = 11;
    const EvolutionResult r = evolve(config);
    ASSERT_TRUE(r.reached_target);

    robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
    const robot::WalkMetrics m =
        walker.walk(genome::GaitGenome::from_bits(r.best_genome), 10);
    EXPECT_GT(m.distance_forward_m, 0.0);
    EXPECT_DOUBLE_EQ(m.slip_m, 0.0);
  }
}

/// Several independent evolved gaits: all advance; the majority do not
/// fall at all over 8 cycles (deterministic fixed seeds — measured once,
/// asserted forever).
TEST(EndToEnd, ManySeedsAdvanceAndMostlyStayUp) {
  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  int no_falls = 0;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    EvolutionConfig config;
    config.seed = seed;
    const EvolutionResult r = evolve(config);
    ASSERT_TRUE(r.reached_target) << "seed " << seed;
    const robot::WalkMetrics m =
        walker.walk(genome::GaitGenome::from_bits(r.best_genome), 8);
    EXPECT_GT(m.distance_forward_m, 0.0) << "seed " << seed;
    if (m.falls == 0) ++no_falls;
  }
  EXPECT_GE(no_falls, 5);
}

/// The R4 support-rule extension measurably improves walk quality over
/// the paper's three rules (mean quality 0.76 vs 0.54 over 50 seeds; a
/// small fixed-seed sample must preserve the ordering).
TEST(EndToEnd, SupportRuleExtensionImprovesWalkQuality) {
  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  auto mean_quality = [&](bool use_support) {
    double sum = 0.0;
    constexpr int kSeeds = 12;
    for (int s = 0; s < kSeeds; ++s) {
      EvolutionConfig config;
      config.seed = 3000 + static_cast<std::uint64_t>(s);
      config.spec.use_support = use_support;
      const EvolutionResult r = evolve(config);
      if (!r.reached_target) continue;
      const robot::WalkMetrics m =
          walker.walk(genome::GaitGenome::from_bits(r.best_genome), 10);
      sum += m.quality(walker.ideal_distance(10));
    }
    return sum / kSeeds;
  };
  EXPECT_GT(mean_quality(true), mean_quality(false));
}

// ---- experiment harness ----

TEST(Experiment, RunTrialsAggregates) {
  EvolutionConfig config;
  const serve::TrialSummary s = serve::run_trials(config, 8, 500, 2);
  EXPECT_EQ(s.trials, 8u);
  EXPECT_EQ(s.runs.size(), 8u);
  EXPECT_EQ(s.reached_target, 8u);
  EXPECT_EQ(s.generations.count(), 8u);
  EXPECT_GT(s.generations.mean(), 0.0);
}

TEST(Experiment, TrialsAreSeedDeterministicAcrossThreadCounts) {
  EvolutionConfig config;
  const serve::TrialSummary a = serve::run_trials(config, 6, 900, 1);
  const serve::TrialSummary b = serve::run_trials(config, 6, 900, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a.runs[i].best_genome, b.runs[i].best_genome);
    EXPECT_EQ(a.runs[i].generations, b.runs[i].generations);
  }
}

TEST(Experiment, DescribeMentionsKeyNumbers) {
  EvolutionConfig config;
  const serve::TrialSummary s = serve::run_trials(config, 4, 42, 2);
  const std::string text = serve::describe(s);
  EXPECT_NE(text.find("4/4"), std::string::npos);
  EXPECT_NE(text.find("generations mean="), std::string::npos);
}

}  // namespace
}  // namespace leo::core
