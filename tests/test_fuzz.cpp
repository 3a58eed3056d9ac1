// Fuzz / property tests across module boundaries: feed large volumes of
// random (but reproducible) inputs through the public APIs and assert
// the invariants that must hold for *every* input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "fitness/rules.hpp"
#include "fpga/bitstream.hpp"
#include "fpga/config_loader.hpp"
#include "fpga/fitness_netlist.hpp"
#include "gap/gap_top.hpp"
#include "genome/gait_analysis.hpp"
#include "genome/gait_genome.hpp"
#include "robot/walker.hpp"
#include "rtl/simulator.hpp"
#include "util/rng.hpp"

namespace leo {
namespace {

/// Every random genome must walk without violating physical invariants:
/// finite metrics, displacement bounded by the ideal, non-negative slip,
/// outcome counts bounded by the phase count.
TEST(Fuzz, WalkerInvariantsOnRandomGenomes) {
  util::Xoshiro256 rng(101);
  robot::Walker walker(robot::kLeonardoConfig, robot::flat_terrain());
  constexpr unsigned kCycles = 5;
  const double ideal = walker.ideal_distance(kCycles);
  for (int i = 0; i < 3000; ++i) {
    const genome::GaitGenome g =
        genome::GaitGenome::from_bits(rng.next_u64() & genome::kGenomeMask);
    const robot::WalkMetrics m = walker.walk(g, kCycles);
    ASSERT_TRUE(std::isfinite(m.distance_forward_m));
    ASSERT_TRUE(std::isfinite(m.slip_m));
    ASSERT_TRUE(std::isfinite(m.mean_margin_m));
    ASSERT_LE(std::abs(m.distance_forward_m), ideal + 0.1);
    ASSERT_GE(m.slip_m, 0.0);
    ASSERT_EQ(m.phases_executed, kCycles * 6);
    ASSERT_LE(m.falls + m.stumbles, m.phases_executed);
    const double q = m.quality(ideal);
    ASSERT_GE(q, 0.0);
    ASSERT_LE(q, 1.0);
  }
}

/// analyze() must never crash or produce out-of-range descriptors, and
/// its class must be consistent with its own counts.
TEST(Fuzz, GaitAnalysisInvariants) {
  util::Xoshiro256 rng(102);
  for (int i = 0; i < 20'000; ++i) {
    const genome::GaitGenome g =
        genome::GaitGenome::from_bits(rng.next_u64() & genome::kGenomeMask);
    const genome::GaitProfile p = genome::analyze(g);
    ASSERT_LE(p.swing_count[0], 6u);
    ASSERT_LE(p.swing_count[1], 6u);
    ASSERT_LE(p.swing_left[0], p.swing_count[0]);
    ASSERT_EQ(p.locomoting_legs + p.conflicting_legs, 6u);
    ASSERT_GE(p.duty_factor, 0.0);
    ASSERT_LE(p.duty_factor, 1.0);
    if (p.cls == genome::GaitClass::kTripod) {
      ASSERT_EQ(p.locomoting_legs, 6u);
    }
    if (p.cls == genome::GaitClass::kStationary) {
      ASSERT_EQ(p.locomoting_legs, 0u);
    }
  }
}

/// Gate-level fitness == bit-level fitness on a large random sample plus
/// the structured corners (every single-bit genome).
TEST(Fuzz, FitnessNetlistAgreesEverywhereSampled) {
  const fpga::Netlist nl = fpga::build_fitness_netlist();
  for (unsigned bit = 0; bit < 36; ++bit) {
    const std::uint64_t g = std::uint64_t{1} << bit;
    ASSERT_EQ(fpga::eval_fitness_netlist(nl, g), fitness::score(g));
  }
  util::Xoshiro256 rng(103);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t g = rng.next_u64() & genome::kGenomeMask;
    ASSERT_EQ(fpga::eval_fitness_netlist(nl, g), fitness::score(g));
  }
}

/// Bitstream frames survive arbitrary payload widths and contents.
TEST(Fuzz, BitstreamRoundTripArbitraryPayloads) {
  util::Xoshiro256 rng(104);
  for (int i = 0; i < 500; ++i) {
    const std::size_t width = 1 + rng.next_below(255);
    std::vector<bool> payload(width);
    std::uint64_t word = 0;
    for (std::size_t bit = 0; bit < width; ++bit) {
      if (bit % 64 == 0) word = rng.next_u64();
      payload[bit] = ((word >> (bit % 64)) & 1) != 0;
    }
    const std::vector<bool> frame = fpga::pack_frame(payload);
    ASSERT_EQ(fpga::unpack_frame(frame), payload) << "width " << width;
  }
}

/// Random two-bit corruption is caught with overwhelming probability by
/// the CRC (two flips can in principle collide, but CRC-16/CCITT detects
/// all double-bit errors within its window).
TEST(Fuzz, BitstreamDetectsRandomDoubleFlips) {
  util::Xoshiro256 rng(105);
  const std::vector<bool> frame = fpga::pack_genome(0x123456789ULL);
  for (int i = 0; i < 300; ++i) {
    std::vector<bool> corrupt = frame;
    const std::size_t a = rng.next_below(frame.size());
    std::size_t b = rng.next_below(frame.size());
    while (b == a) b = rng.next_below(frame.size());
    corrupt[a].flip();
    corrupt[b].flip();
    ASSERT_THROW((void)fpga::unpack_frame(corrupt), std::runtime_error)
        << "flips " << a << ", " << b;
  }
}

/// A ROM holding any strict prefix of a genome frame, or the frame with
/// one more bit appended, is rejected: unpack_frame throws, and the RTL
/// loader streaming it never raises `valid` and ends in `error`.
TEST(Fuzz, BitstreamRejectsEveryPrefixAndOneBitExtension) {
  util::Xoshiro256 rng(107);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<bool> frame =
        fpga::pack_genome(rng.next_u64() & genome::kGenomeMask);
    std::vector<std::vector<bool>> roms;
    for (std::size_t n = 0; n < frame.size(); ++n) {
      roms.emplace_back(frame.begin(),
                        frame.begin() + static_cast<std::ptrdiff_t>(n));
    }
    for (const bool extra : {false, true}) {
      roms.push_back(frame);
      roms.back().push_back(extra);
    }
    for (const std::vector<bool>& rom : roms) {
      ASSERT_THROW((void)fpga::unpack_frame(rom), std::runtime_error)
          << "trial " << trial << ", " << rom.size() << " bits";
      fpga::ConfigLoader loader(nullptr, "boot", rom);
      rtl::Simulator sim(loader);
      for (std::size_t cycle = 0; cycle < frame.size() + 4; ++cycle) {
        sim.run(1);
        ASSERT_FALSE(loader.valid.read())
            << "trial " << trial << ", " << rom.size() << " bits, cycle "
            << cycle;
      }
      ASSERT_TRUE(loader.error.read())
          << "trial " << trial << ", " << rom.size() << " bits";
    }
  }
}

/// The GAP must hold its invariants over a long free run: genome widths
/// respected, best-ever monotone, fitness RAM consistent with the basis
/// population after each EVAL phase.
TEST(Fuzz, GapLongRunInvariants) {
  gap::GapParams params;
  params.target_fitness = 61;  // run forever
  gap::GapTop top(nullptr, "gap", params, 0xFEED);
  rtl::Simulator sim(top);
  unsigned last_best = 0;
  for (int chunk = 0; chunk < 50; ++chunk) {
    sim.run(1000);
    ASSERT_GE(top.best_fitness(), last_best);
    ASSERT_LE(top.best_fitness(), 60u);
    last_best = top.best_fitness();
    for (std::size_t i = 0; i < params.population_size; ++i) {
      ASSERT_EQ(top.peek_basis(i) >> genome::kGenomeBits, 0u);
    }
  }
  ASSERT_GT(top.generation(), 100u);
}

}  // namespace
}  // namespace leo
