// Tests for the cellular-automaton random generator — the paper's
// "one-dimensional cellular machine (XOR system)".
#include "util/ca_rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "gap/ca_rng_module.hpp"
#include "rtl/simulator.hpp"

namespace leo {
namespace {

TEST(CaRng, CanonicalHybridHasMaximalPeriod) {
  // Exhaustive: the 16-cell hybrid must visit all 2^16 - 1 nonzero states.
  util::CaRng ca = util::CaRng::make_hortensius16(1);
  const std::uint64_t start = ca.state();
  std::uint64_t period = 0;
  do {
    ca.step();
    ++period;
    ASSERT_NE(ca.state(), 0u) << "CA fell into the absorbing zero state";
    ASSERT_LE(period, 65535u);
  } while (ca.state() != start);
  EXPECT_EQ(period, 65535u);
}

TEST(CaRng, PureRule90IsNotMaximal) {
  // The all-rule-90 machine (mask 0) has a much shorter cycle — the
  // reason hybrids are used at all.
  util::CaRng ca(16, 0x0000, 1);
  const std::uint64_t start = ca.state();
  std::uint64_t period = 0;
  do {
    ca.step();
    ++period;
    if (period > 65535u) break;
  } while (ca.state() != start);
  EXPECT_LT(period, 65535u);
}

TEST(CaRng, ZeroSeedCoerced) {
  util::CaRng ca(16, 0x0015, 0);
  EXPECT_NE(ca.state(), 0u);
}

TEST(CaRng, RejectsBadWidth) {
  EXPECT_THROW(util::CaRng(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(util::CaRng(65, 0, 1), std::invalid_argument);
}

TEST(CaRng, NullBoundarySemantics) {
  // One cell set in the middle under rule 90 spreads to both neighbours.
  util::CaRng ca(8, 0x00, 0b00010000);
  ca.step();
  EXPECT_EQ(ca.state(), 0b00101000u);
}

TEST(CaRng, BitBalanceOverPeriod) {
  // Over a full maximal period every cell is 1 in exactly 2^15 states.
  util::CaRng ca = util::CaRng::make_hortensius16(1);
  std::array<std::uint64_t, 16> ones{};
  for (int i = 0; i < 65535; ++i) {
    const std::uint64_t s = ca.step();
    for (unsigned b = 0; b < 16; ++b) ones[b] += (s >> b) & 1;
  }
  for (unsigned b = 0; b < 16; ++b) {
    EXPECT_EQ(ones[b], 32768u) << "cell " << b;
  }
}

TEST(CaRngModule, BitExactWithSoftwareModel) {
  // The RTL module must replay the software stream cycle for cycle.
  gap::CaRngModule hw(nullptr, "rng", 0xBEEF);
  rtl::Simulator sim(hw);
  util::CaRng sw = util::CaRng::make_hortensius16(0xBEEF);
  EXPECT_EQ(hw.word.read(), sw.state());
  for (int cycle = 0; cycle < 1000; ++cycle) {
    sim.step();
    ASSERT_EQ(hw.word.read(), sw.step()) << "cycle " << cycle;
  }
}

TEST(CaRngModule, FreeRunsFromReset) {
  gap::CaRngModule hw(nullptr, "rng", 5);
  rtl::Simulator sim(hw);
  const std::uint16_t first = hw.word.read();
  sim.step();
  EXPECT_NE(hw.word.read(), first);
  sim.reset();
  EXPECT_EQ(hw.word.read(), first);
}

TEST(CaRngModule, SerialCorrelationIsLow) {
  // Adjacent words should not be strongly correlated bitwise.
  gap::CaRngModule hw(nullptr, "rng", 0x1234);
  rtl::Simulator sim(hw);
  std::uint64_t agree = 0;
  std::uint16_t prev = hw.word.read();
  constexpr int kSteps = 4096;
  for (int i = 0; i < kSteps; ++i) {
    sim.step();
    const std::uint16_t cur = hw.word.read();
    agree += static_cast<std::uint64_t>(
        16 - std::popcount(static_cast<unsigned>(cur ^ prev)));
    prev = cur;
  }
  const double agreement =
      static_cast<double>(agree) / (16.0 * kSteps);
  EXPECT_NEAR(agreement, 0.5, 0.05);
}

}  // namespace
}  // namespace leo
