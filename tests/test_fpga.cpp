// Tests for the FPGA substrate: gate netlist, fitness elaboration,
// technology mapping, device report and configuration bitstream.
#include "fpga/netlist.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/discipulus.hpp"
#include "fitness/rules.hpp"
#include "fpga/bitstream.hpp"
#include "fpga/config_loader.hpp"
#include "rtl/simulator.hpp"
#include "fpga/fitness_netlist.hpp"
#include "fpga/techmap.hpp"
#include "fpga/xc4000.hpp"
#include "genome/known_gaits.hpp"
#include "util/rng.hpp"

namespace leo::fpga {
namespace {

// ---- netlist ----

TEST(Netlist, BasicGatesEvaluate) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.mark_output(nl.add_gate(GateOp::kAnd, {a, b}), "and");
  nl.mark_output(nl.add_gate(GateOp::kOr, {a, b}), "or");
  nl.mark_output(nl.add_gate(GateOp::kXor, {a, b}), "xor");
  nl.mark_output(nl.add_not(a), "not_a");
  for (int va = 0; va < 2; ++va) {
    for (int vb = 0; vb < 2; ++vb) {
      const std::uint64_t out =
          nl.evaluate_outputs({va != 0, vb != 0});
      EXPECT_EQ(out & 1, static_cast<unsigned>(va & vb));
      EXPECT_EQ((out >> 1) & 1, static_cast<unsigned>(va | vb));
      EXPECT_EQ((out >> 2) & 1, static_cast<unsigned>(va ^ vb));
      EXPECT_EQ((out >> 3) & 1, static_cast<unsigned>(!va));
    }
  }
}

TEST(Netlist, WideGatesBuildBalancedTrees) {
  Netlist nl;
  std::vector<NodeId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(nl.add_input("i"));
  nl.mark_output(nl.add_gate(GateOp::kAnd, ins), "and5");
  // 5-input AND from 2-input gates needs exactly 4 gates.
  EXPECT_EQ(nl.gate_count(), 4u);
  EXPECT_EQ(nl.evaluate_outputs({true, true, true, true, true}), 1u);
  EXPECT_EQ(nl.evaluate_outputs({true, true, false, true, true}), 0u);
}

TEST(Netlist, ConstantsAreCached) {
  Netlist nl;
  const NodeId c0 = nl.constant(false);
  EXPECT_EQ(nl.constant(false), c0);
  EXPECT_NE(nl.constant(true), c0);
}

TEST(Netlist, Validation) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  EXPECT_THROW((void)nl.add_gate(GateOp::kAnd, {a}), std::invalid_argument);
  EXPECT_THROW((void)nl.add_gate(GateOp::kNot, {a, a}), std::invalid_argument);
  EXPECT_THROW((void)nl.add_gate(GateOp::kAnd, {a, 999}), std::out_of_range);
  EXPECT_THROW((void)nl.evaluate({}), std::invalid_argument);
}

// ---- fitness netlist ----

TEST(FitnessNetlist, MatchesSoftwareOnKnownGaits) {
  const Netlist nl = build_fitness_netlist();
  EXPECT_EQ(eval_fitness_netlist(nl, genome::tripod_gait().to_bits()), 60u);
  EXPECT_EQ(eval_fitness_netlist(nl, genome::all_zero_gait().to_bits()),
            fitness::score(genome::all_zero_gait()));
  EXPECT_EQ(eval_fitness_netlist(nl, genome::pronking_gait().to_bits()),
            fitness::score(genome::pronking_gait()));
}

TEST(FitnessNetlist, MatchesSoftwareOnRandomGenomes) {
  const Netlist nl = build_fitness_netlist();
  util::Xoshiro256 rng(71);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t g = rng.next_u64() & genome::kGenomeMask;
    ASSERT_EQ(eval_fitness_netlist(nl, g), fitness::score(g))
        << "genome " << g;
  }
}

/// Parameterized across ablation specs: the gate construction must track
/// the arithmetic under every rule combination.
class FitnessNetlistSpec
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(FitnessNetlistSpec, MatchesSoftwareUnderAblation) {
  auto [eq, sym, coh] = GetParam();
  fitness::FitnessSpec spec;
  spec.use_equilibrium = eq;
  spec.use_symmetry = sym;
  spec.use_coherence = coh;
  if (spec.max_score() == 0) GTEST_SKIP() << "degenerate spec";
  const Netlist nl = build_fitness_netlist(spec);
  util::Xoshiro256 rng(72);
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t g = rng.next_u64() & genome::kGenomeMask;
    ASSERT_EQ(eval_fitness_netlist(nl, g), fitness::score(g, spec));
  }
}

INSTANTIATE_TEST_SUITE_P(Ablations, FitnessNetlistSpec,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(FitnessNetlist, IsPureCombinational) {
  const Netlist nl = build_fitness_netlist();
  EXPECT_EQ(nl.inputs().size(), 36u);
  EXPECT_GT(nl.gate_count(), 100u);  // nontrivial but
  EXPECT_LT(nl.gate_count(), 1000u); // clearly CLB-scale, as the paper needs
}

// ---- techmap ----

TEST(TechMap, CoversEveryGate) {
  const Netlist nl = build_fitness_netlist();
  const MappingResult m = map_to_lut4(nl);
  EXPECT_GT(m.lut4, 0u);
  EXPECT_EQ(m.lut4 + m.gates_covered, nl.gate_count());
  EXPECT_LT(m.lut4, nl.gate_count());  // packing must achieve something
  EXPECT_GT(m.depth, 1u);
}

TEST(TechMap, SingleGateIsOneLut) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.mark_output(nl.add_gate(GateOp::kXor, {a, b}), "y");
  const MappingResult m = map_to_lut4(nl);
  EXPECT_EQ(m.lut4, 1u);
  EXPECT_EQ(m.depth, 1u);
}

TEST(TechMap, ChainOfThreeGatesPacksIntoOneLut) {
  // ((a & b) ^ c) | d : 3 gates, 4 leaf inputs -> exactly one LUT4.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId d = nl.add_input("d");
  const NodeId g1 = nl.add_gate(GateOp::kAnd, {a, b});
  const NodeId g2 = nl.add_gate(GateOp::kXor, {g1, c});
  nl.mark_output(nl.add_gate(GateOp::kOr, {g2, d}), "y");
  const MappingResult m = map_to_lut4(nl);
  EXPECT_EQ(m.lut4, 1u);
}

TEST(TechMap, FanoutBlocksAbsorption) {
  // g1 feeds two consumers: it must stay a LUT of its own.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId g1 = nl.add_gate(GateOp::kAnd, {a, b});
  nl.mark_output(nl.add_gate(GateOp::kXor, {g1, c}), "y0");
  nl.mark_output(nl.add_gate(GateOp::kOr, {g1, c}), "y1");
  const MappingResult m = map_to_lut4(nl);
  EXPECT_EQ(m.lut4, 3u);
}

TEST(TechMap, ClbFormula) {
  rtl::ResourceTally t;
  t.lut4 = 10;
  t.ff = 4;
  EXPECT_EQ(clbs_for(t), 5u);  // LUT-bound
  t.ff = 20;
  EXPECT_EQ(clbs_for(t), 10u);  // FF-bound
  t.ram_bits = 64;
  EXPECT_EQ(clbs_for(t), 12u);  // + 2 RAM CLBs
}

// ---- device report (E3) ----

TEST(Device, Xc4036ExGeometry) {
  EXPECT_EQ(kXc4036Ex.clbs(), 1296u);  // the paper's "1296 CLBs"
  EXPECT_NEAR(kXc4036Ex.gate_capacity(), 29'808.0, 1.0);  // ~30k gates
}

TEST(Device, FullDiscipulusFitsTheDevice) {
  core::DiscipulusParams params;
  core::DiscipulusTop top(nullptr, "discipulus", params, 1);
  const UtilizationReport rep = report_utilization(top);
  EXPECT_GT(rep.total_clbs, 100u);
  EXPECT_LE(rep.total_clbs, kXc4036Ex.clbs());
  EXPECT_GT(rep.utilization, 0.1);
  EXPECT_LE(rep.utilization, 1.0);
  const std::string text = rep.to_string(kXc4036Ex);
  EXPECT_NE(text.find("XC4036EX"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
  EXPECT_NE(text.find("fitness_module"), std::string::npos);
}

// ---- bitstream ----

/// A frame's bits in stream order, as '0'/'1' characters, so a golden
/// mismatch shows which bit moved.
std::string stream_bits(const std::vector<bool>& frame) {
  std::string out;
  for (const bool bit : frame) out.push_back(bit ? '1' : '0');
  return out;
}

/// The low `n` bits of `value` (zero beyond bit 63), LSB first.
std::vector<bool> payload_bits(std::uint64_t value, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n && i < 64; ++i) {
    bits[i] = ((value >> i) & 1) != 0;
  }
  return bits;
}

/// The low `n` bits of `value`, LSB first, as '0'/'1' characters.
std::string stream_bits(std::uint64_t value, std::size_t n) {
  return stream_bits(payload_bits(value, n));
}

TEST(Bitstream, GoldenFrames) {
  // pack_genome's exact 84 bits as the low 64 and the high 20: magic
  // 0x4C44, version 1, width 36, the genome, then the CRC.
  struct Golden {
    std::uint64_t genome, low64, high20;
  };
  for (const Golden& g :
       {Golden{0, 0x0000000024014c44, 0xb7eb0},
        Golden{genome::tripod_gait().to_bits(), 0x186030c324014c44, 0x371f6},
        Golden{0xFFFFFFFFF, 0xffffffff24014c44, 0x9b94f}}) {
    EXPECT_EQ(stream_bits(pack_genome(g.genome)),
              stream_bits(g.low64, 64) + stream_bits(g.high20, 20))
        << "genome 0x" << std::hex << g.genome;
  }
  // The catalogue check value of CRC-16/CCITT-FALSE.
  std::uint16_t crc = 0xFFFF;
  for (const char c : std::string_view("123456789")) {
    crc = crc16_update(crc, static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(crc, 0x29B1);
}

/// Bits [lo, lo+n) of a frame as a little-endian number.
std::uint64_t field(const std::vector<bool>& frame, std::size_t lo,
                    std::size_t n) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    value |= static_cast<std::uint64_t>(frame.at(lo + i)) << i;
  }
  return value;
}

TEST(Bitstream, GenomeRoundTrip) {
  util::Xoshiro256 rng(81);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t g = rng.next_u64() & genome::kGenomeMask;
    EXPECT_EQ(unpack_genome(pack_genome(g)), g);
  }
}

TEST(Bitstream, FrameLayout) {
  const std::vector<bool> frame = pack_genome(0);
  EXPECT_EQ(frame.size(), 16u + 8 + 8 + 36 + 16);
  EXPECT_EQ(field(frame, 0, 16), kFrameMagic);
  EXPECT_EQ(field(frame, 16, 8), kFrameVersion);
  EXPECT_EQ(field(frame, 24, 8), 36u);
}

TEST(Bitstream, EverySingleBitFlipIsDetected) {
  // CRC-16 detects all single-bit errors; a corrupted gait must never be
  // silently loaded into the controller.
  const std::vector<bool> frame = pack_genome(genome::tripod_gait().to_bits());
  for (std::size_t bit = 0; bit < frame.size(); ++bit) {
    std::vector<bool> corrupt = frame;
    corrupt[bit].flip();
    EXPECT_THROW((void)unpack_frame(corrupt), std::runtime_error)
        << "flip at bit " << bit;
  }
}

TEST(Bitstream, TruncationDetected) {
  const std::vector<bool> frame = pack_genome(7);
  EXPECT_THROW(
      (void)unpack_frame(std::vector<bool>(frame.begin(), frame.end() - 8)),
      std::runtime_error);
}

TEST(Bitstream, WrongWidthPayloadRejectedAsGenome) {
  const std::vector<bool> frame = pack_frame(payload_bits(5, 20));
  EXPECT_EQ(unpack_frame(frame).size(), 20u);
  EXPECT_THROW((void)unpack_genome(frame), std::runtime_error);
}

TEST(Bitstream, PayloadLimits) {
  EXPECT_THROW((void)pack_frame({}), std::invalid_argument);
  EXPECT_NO_THROW((void)pack_frame(payload_bits(1, 255)));
}

// ---- config-ROM boot loader (RTL) ----

TEST(ConfigLoader, LoadsAValidFrameBitSerially) {
  const std::uint64_t genome = genome::tripod_gait().to_bits();
  ConfigLoader loader(nullptr, "boot", pack_genome(genome));
  rtl::Simulator sim(loader);
  EXPECT_TRUE(loader.busy.read());
  // Frame = 32 header + 36 payload + 16 CRC = 84 bits = 84 cycles.
  sim.run(84);
  EXPECT_TRUE(loader.valid.read());
  EXPECT_FALSE(loader.error.read());
  EXPECT_FALSE(loader.busy.read());
  EXPECT_EQ(loader.payload.read(), genome);
}

TEST(ConfigLoader, EveryBitFlipIsRejectedInHardware) {
  const std::vector<bool> frame = pack_genome(genome::tripod_gait().to_bits());
  for (std::size_t bit = 0; bit < frame.size(); bit += 7) {  // sample
    std::vector<bool> corrupt = frame;
    corrupt[bit].flip();
    ConfigLoader loader(nullptr, "boot", corrupt);
    rtl::Simulator sim(loader);
    sim.run(frame.size() + 4);
    EXPECT_FALSE(loader.valid.read()) << "flip at " << bit;
    EXPECT_TRUE(loader.error.read()) << "flip at " << bit;
  }
}

TEST(ConfigLoader, TruncatedRomErrors) {
  const std::vector<bool> frame = pack_genome(7);
  ConfigLoader loader(nullptr, "boot",
                      std::vector<bool>(frame.begin(), frame.end() - 10));
  rtl::Simulator sim(loader);
  sim.run(100);
  EXPECT_TRUE(loader.error.read());
}

TEST(ConfigLoader, BadMagicRejectedAtHeader) {
  std::vector<bool> frame = pack_genome(7);
  for (std::size_t i = 0; i < 16; ++i) frame[i] = ((0xDEAD >> i) & 1) != 0;
  ConfigLoader loader(nullptr, "boot", frame);
  rtl::Simulator sim(loader);
  sim.run(33);  // one cycle past the header
  EXPECT_TRUE(loader.error.read());
}

TEST(ConfigLoader, ResetRestreamsTheRom) {
  ConfigLoader loader(nullptr, "boot", pack_genome(0x111111111ULL));
  rtl::Simulator sim(loader);
  sim.run(90);
  ASSERT_TRUE(loader.valid.read());
  EXPECT_EQ(loader.payload.read(), 0x111111111ULL);
  sim.reset();
  EXPECT_TRUE(loader.busy.read());
  sim.run(90);
  EXPECT_TRUE(loader.valid.read());
  EXPECT_EQ(loader.payload.read(), 0x111111111ULL);
}

TEST(ConfigLoader, ArbitraryPayloadWidths) {
  util::Xoshiro256 rng(9);
  for (const std::size_t width : {1u, 7u, 16u, 17u, 33u, 48u}) {
    const std::vector<bool> payload = payload_bits(rng.next_u64(), width);
    ConfigLoader loader(nullptr, "boot", pack_frame(payload));
    rtl::Simulator sim(loader);
    sim.run(32 + width + 16 + 2);
    ASSERT_TRUE(loader.valid.read()) << "width " << width;
    ASSERT_EQ(loader.payload.read(), field(payload, 0, width))
        << "width " << width;
  }
}

TEST(Bitstream, Crc16KnownProperty) {
  // Appending the frame's own CRC makes any further flip detectable; also
  // two different payloads must virtually never share a CRC here.
  const std::vector<bool> f1 = pack_genome(1);
  const std::vector<bool> f2 = pack_genome(2);
  EXPECT_NE(field(f1, 68, 16), field(f2, 68, 16));
}

}  // namespace
}  // namespace leo::fpga
