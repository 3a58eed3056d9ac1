// Tests for the 36-bit gait genome and its phase expansion.
#include "genome/gait_genome.hpp"

#include <gtest/gtest.h>

#include <string>

#include "genome/known_gaits.hpp"
#include "genome/phases.hpp"
#include "util/rng.hpp"

namespace leo::genome {
namespace {

TEST(GaitGenome, PaperConstants) {
  EXPECT_EQ(kNumLegs, 6u);
  EXPECT_EQ(kNumSteps, 2u);
  EXPECT_EQ(kBitsPerLegStep, 3u);
  EXPECT_EQ(kGenomeBits, 36u);
  // "a search space of size 2^36 = 68 billion possibilities" (§3.1)
  EXPECT_EQ(kSearchSpace, 68'719'476'736ULL);
}

TEST(GaitGenome, LegSides) {
  for (std::size_t leg = 0; leg < 3; ++leg) EXPECT_TRUE(is_left_leg(leg));
  for (std::size_t leg = 3; leg < 6; ++leg) EXPECT_FALSE(is_left_leg(leg));
}

TEST(LegGene, PackUnpackAllEightValues) {
  for (std::uint8_t bits = 0; bits < 8; ++bits) {
    EXPECT_EQ(LegGene::unpack(bits).pack(), bits);
  }
}

TEST(LegGene, FieldMeaning) {
  const LegGene g = LegGene::unpack(0b011);
  EXPECT_TRUE(g.lift_first);
  EXPECT_TRUE(g.forward);
  EXPECT_FALSE(g.lift_last);
}

TEST(GaitGenome, BitLayoutMatchesSpec) {
  // bit = step*18 + leg*3 + field
  GaitGenome g;
  g.gene(1, 4).forward = true;  // bit 18 + 12 + 1 = 31
  EXPECT_EQ(g.to_bits(), std::uint64_t{1} << 31);
  GaitGenome h;
  h.gene(0, 0).lift_first = true;  // bit 0
  EXPECT_EQ(h.to_bits(), 1u);
}

TEST(GaitGenome, RoundTripRandom) {
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = rng.next_u64() & kGenomeMask;
    EXPECT_EQ(GaitGenome::from_bits(bits).to_bits(), bits);
  }
}

TEST(GaitGenome, HexRoundTrip) {
  const GaitGenome g = tripod_gait();
  const std::string hex = g.to_hex();
  EXPECT_EQ(hex, "0x6186030c3");
  EXPECT_EQ(GaitGenome::from_bits(std::stoull(hex, nullptr, 16)), g);
  EXPECT_EQ(GaitGenome::from_bits(0).to_hex(), "0x000000000");
  EXPECT_EQ(GaitGenome::from_bits(kGenomeMask).to_hex(), "0xfffffffff");
}

TEST(GaitGenome, FromBitsRejectsHighBits) {
  EXPECT_THROW(GaitGenome::from_bits(std::uint64_t{1} << 36),
               std::invalid_argument);
}

TEST(GaitGenome, DescribeAndDiagramMentionEveryLeg) {
  const std::string desc = tripod_gait().describe();
  const std::string diag = tripod_gait().diagram();
  for (const char* label : {"L-front", "L-mid", "L-rear", "R-front", "R-mid",
                            "R-rear"}) {
    EXPECT_NE(desc.find(label), std::string::npos) << label;
    EXPECT_NE(diag.find(label), std::string::npos) << label;
  }
  EXPECT_NE(diag.find('^'), std::string::npos);
  EXPECT_NE(diag.find('>'), std::string::npos);
}

// ---- known gaits ----

TEST(KnownGaits, TripodAlternatesTripods) {
  const GaitGenome g = tripod_gait();
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    // Exactly one of the two steps swings this leg.
    EXPECT_NE(g.gene(0, leg).forward, g.gene(1, leg).forward);
    EXPECT_NE(g.gene(0, leg).lift_first, g.gene(1, leg).lift_first);
  }
  // Tripod A = {0, 2, 4} swings first.
  EXPECT_TRUE(g.gene(0, 0).lift_first);
  EXPECT_FALSE(g.gene(0, 1).lift_first);
  EXPECT_TRUE(g.gene(0, 2).lift_first);
}

TEST(KnownGaits, MirroredTripodIsTheComplementaryPhase) {
  const GaitGenome a = tripod_gait();
  const GaitGenome b = tripod_gait_mirrored();
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    EXPECT_EQ(a.gene(0, leg), b.gene(1, leg));
    EXPECT_EQ(a.gene(1, leg), b.gene(0, leg));
  }
}

TEST(KnownGaits, AllZeroIsAllZeros) {
  EXPECT_EQ(all_zero_gait().to_bits(), 0u);
}

TEST(KnownGaits, PronkingRaisesAllLegsInStep0) {
  const GaitGenome g = pronking_gait();
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    EXPECT_TRUE(g.gene(0, leg).lift_first);
    EXPECT_FALSE(g.gene(1, leg).lift_first);
  }
}

TEST(KnownGaits, OneSideLiftedRaisesExactlyOneSide) {
  const GaitGenome g = one_side_lifted_gait();
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    EXPECT_EQ(g.gene(0, leg).lift_first, is_left_leg(leg));
  }
}

// ---- phase expansion ----

TEST(PhaseTable, PhaseKindSequence) {
  EXPECT_EQ(phase_kind(0), PhaseKind::kVerticalFirst);
  EXPECT_EQ(phase_kind(1), PhaseKind::kHorizontal);
  EXPECT_EQ(phase_kind(2), PhaseKind::kVerticalLast);
  EXPECT_EQ(phase_kind(3), PhaseKind::kVerticalFirst);
  EXPECT_EQ(phase_step(2), 0u);
  EXPECT_EQ(phase_step(3), 1u);
}

TEST(PhaseTable, VerticalPhasesOnlyChangeHeight) {
  util::Xoshiro256 rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    const GaitGenome g =
        GaitGenome::from_bits(rng.next_u64() & kGenomeMask);
    const PhaseTable t(g);
    for (std::size_t phase = 0; phase < kPhasesPerCycle; ++phase) {
      if (phase == 0) continue;
      for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
        const LegPose& prev = t.pose(phase - 1, leg);
        const LegPose& cur = t.pose(phase, leg);
        if (phase_kind(phase) == PhaseKind::kHorizontal) {
          EXPECT_EQ(prev.raised, cur.raised);
        } else {
          EXPECT_EQ(prev.fore, cur.fore);
        }
      }
    }
  }
}

TEST(PhaseTable, TripodRaisedCounts) {
  const PhaseTable t(tripod_gait());
  // During step 0's sweep, tripod A = {0, 2, 4} is airborne: 2 left, 1 right.
  EXPECT_EQ(t.raised_on_side(0, true), 2u);
  EXPECT_EQ(t.raised_on_side(0, false), 1u);
  // After step 0's final vertical move everything is planted.
  EXPECT_EQ(t.raised_on_side(2, true), 0u);
  EXPECT_EQ(t.raised_on_side(2, false), 0u);
}

TEST(PhaseTable, StanceDuringSweep) {
  const PhaseTable t(tripod_gait());
  EXPECT_FALSE(t.is_stance_during_sweep(0, 0));  // tripod A swings step 0
  EXPECT_TRUE(t.is_stance_during_sweep(0, 1));
  EXPECT_TRUE(t.is_stance_during_sweep(1, 0));   // roles swap in step 1
  EXPECT_FALSE(t.is_stance_during_sweep(1, 1));
}

TEST(PhaseTable, InitialPoseRespected) {
  const PhaseTable t(all_zero_gait(), LegPose{true, true});
  // Phase 0 lowers all legs (lift_first = 0) but leaves fore = true.
  for (std::size_t leg = 0; leg < kNumLegs; ++leg) {
    EXPECT_FALSE(t.pose(0, leg).raised);
    EXPECT_TRUE(t.pose(0, leg).fore);
  }
}

}  // namespace
}  // namespace leo::genome
