// Tests for the three fitness rules and the landscape analysis.
#include "fitness/rules.hpp"

#include <gtest/gtest.h>

#include "fitness/landscape.hpp"
#include "genome/known_gaits.hpp"
#include "util/rng.hpp"

namespace leo::fitness {
namespace {

using genome::GaitGenome;

TEST(FitnessSpec, DefaultMaxScoreIs60) {
  EXPECT_EQ(kDefaultSpec.max_score(), 60u);
}

TEST(FitnessSpec, AblationRemovesRuleContribution) {
  FitnessSpec no_eq = kDefaultSpec;
  no_eq.use_equilibrium = false;
  EXPECT_EQ(no_eq.max_score(), 60u - 3 * 8);
  FitnessSpec no_sym = kDefaultSpec;
  no_sym.use_symmetry = false;
  EXPECT_EQ(no_sym.max_score(), 60u - 2 * 6);
  FitnessSpec no_coh = kDefaultSpec;
  no_coh.use_coherence = false;
  EXPECT_EQ(no_coh.max_score(), 60u - 2 * 12);
}

TEST(Rules, TripodGaitIsPerfect) {
  const RuleViolations v = count_violations(genome::tripod_gait());
  EXPECT_EQ(v.equilibrium, 0u);
  EXPECT_EQ(v.symmetry, 0u);
  EXPECT_EQ(v.coherence, 0u);
  EXPECT_EQ(score(genome::tripod_gait()), 60u);
  EXPECT_TRUE(is_max_fitness(genome::tripod_gait().to_bits()));
}

TEST(Rules, MirroredTripodAlsoPerfect) {
  EXPECT_EQ(score(genome::tripod_gait_mirrored()), 60u);
}

TEST(Rules, AllZeroViolatesOnlySymmetry) {
  const RuleViolations v = count_violations(genome::all_zero_gait());
  EXPECT_EQ(v.equilibrium, 0u);
  EXPECT_EQ(v.symmetry, 6u);
  EXPECT_EQ(v.coherence, 0u);
  EXPECT_EQ(score(genome::all_zero_gait()), 60u - 2 * 6);
}

TEST(Rules, PronkingViolatesEquilibriumBothSides) {
  const RuleViolations v = count_violations(genome::pronking_gait());
  EXPECT_EQ(v.equilibrium, 2u);  // both sides airborne during step 0 sweep
  EXPECT_EQ(v.symmetry, 0u);
  EXPECT_EQ(v.coherence, 0u);
}

TEST(Rules, OneSideLiftedIsThePaperExample) {
  // "if the robot has three legs raised on the same side, it will stumble
  //  and fall, resulting in a bad fitness value" (§3.2)
  const RuleViolations v = count_violations(genome::one_side_lifted_gait());
  EXPECT_EQ(v.equilibrium, 2u);  // left side in step 0, right side in step 1
  EXPECT_LT(score(genome::one_side_lifted_gait()), 60u);
}

TEST(Rules, ReverseTripodViolatesAllCoherence) {
  const RuleViolations v = count_violations(genome::reverse_tripod_gait());
  EXPECT_EQ(v.equilibrium, 0u);
  EXPECT_EQ(v.symmetry, 0u);
  EXPECT_EQ(v.coherence, 12u);
}

TEST(Rules, AllOnesGenome) {
  // Every leg up/forward/up in both steps: equilibrium fails in every
  // settled pose on both sides (8), symmetry fails everywhere (6),
  // coherence holds (h == v0 == 1).
  const RuleViolations v = count_violations((std::uint64_t{1} << 36) - 1);
  EXPECT_EQ(v.equilibrium, 8u);
  EXPECT_EQ(v.symmetry, 6u);
  EXPECT_EQ(v.coherence, 0u);
  EXPECT_EQ(score((std::uint64_t{1} << 36) - 1), 3u * 0 + 2u * 0 + 2u * 12);
}

TEST(Rules, PackedAndDecodedAgree) {
  util::Xoshiro256 rng(21);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t bits = rng.next_u64() & genome::kGenomeMask;
    EXPECT_EQ(count_violations(bits),
              count_violations(GaitGenome::from_bits(bits)));
  }
}

/// The mask/AND/XOR logic vs the rule-by-rule reference loop. R1, R3 and
/// R4 have no cross-step terms, so sweeping each step's full 2^18 space
/// (as step 0 and as step 1, the other step zero) checks them completely;
/// R2 reads only the twelve horizontal bits, all 2^12 of which are swept.
/// Random full genomes then exercise every rule together.
TEST(Rules, LogicMatchesReferenceExhaustivelyPerStep) {
  for (std::uint32_t s = 0; s < (1u << 18); ++s) {
    const std::uint64_t as_step0 = s;
    ASSERT_EQ(count_violations(as_step0), count_violations_reference(as_step0))
        << "step-0 word " << s;
    const std::uint64_t as_step1 = static_cast<std::uint64_t>(s) << 18;
    ASSERT_EQ(count_violations(as_step1), count_violations_reference(as_step1))
        << "step-1 word " << s;
  }
  for (std::uint32_t h = 0; h < (1u << 12); ++h) {
    std::uint64_t bits = 0;
    for (unsigned i = 0; i < 12; ++i) {
      // Horizontal field of leg i % 6 in step i / 6.
      bits |= static_cast<std::uint64_t>((h >> i) & 1) << (3 * i + 1);
    }
    ASSERT_EQ(count_violations(bits), count_violations_reference(bits))
        << "horizontal bits " << h;
  }
}

TEST(Rules, LogicMatchesReferenceOnRandomFullGenomes) {
  util::Xoshiro256 rng(36);
  for (int i = 0; i < 10'000'000; ++i) {
    const std::uint64_t bits = rng.next_u64() & genome::kGenomeMask;
    ASSERT_EQ(count_violations(bits), count_violations_reference(bits))
        << "genome " << bits;
  }
}

TEST(Rules, ViolationBoundsHold) {
  util::Xoshiro256 rng(22);
  for (int i = 0; i < 5000; ++i) {
    const RuleViolations v =
        count_violations(rng.next_u64() & genome::kGenomeMask);
    EXPECT_LE(v.equilibrium, kMaxEquilibriumViolations);
    EXPECT_LE(v.symmetry, kMaxSymmetryViolations);
    EXPECT_LE(v.coherence, kMaxCoherenceViolations);
  }
}

TEST(Rules, ScoreMatchesWeightedViolations) {
  util::Xoshiro256 rng(23);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t bits = rng.next_u64() & genome::kGenomeMask;
    const RuleViolations v = count_violations(bits);
    EXPECT_EQ(score(bits), 3u * (8 - v.equilibrium) + 2u * (6 - v.symmetry) +
                               2u * (12 - v.coherence));
  }
}

/// Physical symmetry: mirroring the robot left-right cannot change the
/// score (the rules treat the sides identically).
TEST(Rules, ScoreInvariantUnderLeftRightMirror) {
  util::Xoshiro256 rng(24);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = rng.next_u64() & genome::kGenomeMask;
    GaitGenome g = GaitGenome::from_bits(bits);
    GaitGenome mirrored;
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t leg = 0; leg < 6; ++leg) {
        mirrored.gene(s, (leg + 3) % 6) = g.gene(s, leg);
      }
    }
    EXPECT_EQ(score(g), score(mirrored));
  }
}

/// Temporal symmetry: swapping the two steps cannot change the score.
TEST(Rules, ScoreInvariantUnderStepSwap) {
  util::Xoshiro256 rng(25);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = rng.next_u64() & genome::kGenomeMask;
    GaitGenome g = GaitGenome::from_bits(bits);
    GaitGenome swapped;
    for (std::size_t leg = 0; leg < 6; ++leg) {
      swapped.gene(0, leg) = g.gene(1, leg);
      swapped.gene(1, leg) = g.gene(0, leg);
    }
    EXPECT_EQ(score(g), score(swapped));
  }
}

/// Fixing one violated rule (and touching nothing else) never lowers the
/// score — monotonicity of the weighting.
TEST(Rules, FixingSymmetryViolationImproves) {
  util::Xoshiro256 rng(26);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t bits = rng.next_u64() & genome::kGenomeMask;
    GaitGenome g = GaitGenome::from_bits(bits);
    for (std::size_t leg = 0; leg < 6; ++leg) {
      if (g.gene(0, leg).forward == g.gene(1, leg).forward) {
        GaitGenome fixed = g;
        fixed.gene(1, leg).forward = !fixed.gene(1, leg).forward;
        const RuleViolations before = count_violations(g);
        const RuleViolations after = count_violations(fixed);
        EXPECT_EQ(after.symmetry + 1, before.symmetry);
        break;
      }
    }
  }
}

// ---- landscape (E6) ----

TEST(Landscape, ExactMaxFitnessCount) {
  // Structured enumeration: 86,436 of 2^36 genomes satisfy all rules.
  // (Per leg 8 coherent+symmetric patterns; R1 prunes the rest.)
  EXPECT_EQ(count_max_fitness_exact(), 86'436u);
}

TEST(Landscape, DensityAndExpectedDraws) {
  const double density = max_fitness_density();
  EXPECT_NEAR(density, 86'436.0 / 68'719'476'736.0, 1e-12);
  EXPECT_NEAR(expected_random_draws_to_max(), 1.0 / density, 1.0);
}

TEST(Landscape, SampledStatisticsAreConsistent) {
  util::Xoshiro256 rng(31);
  const LandscapeSample s = sample_landscape(200'000, rng);
  EXPECT_EQ(s.scores.count(), 200'000u);
  // Mean random score is far below the maximum (empirically ~42).
  EXPECT_GT(s.scores.mean(), 30.0);
  EXPECT_LT(s.scores.mean(), 50.0);
  EXPECT_EQ(s.histogram.total(), 200'000u);
  // Max hits should be rare but the histogram must top out at <= 60.
  for (std::size_t b = 61; b < s.histogram.bins(); ++b) {
    EXPECT_EQ(s.histogram.bin_count(b), 0u);
  }
}

TEST(Landscape, SampleFindsNoImpossibleScores) {
  util::Xoshiro256 rng(32);
  const LandscapeSample s = sample_landscape(50'000, rng);
  EXPECT_LE(s.scores.max(), 60.0);
  EXPECT_GE(s.scores.min(), 0.0);
}

}  // namespace
}  // namespace leo::fitness
