// Mode-equivalence proof for the two settle kernels: the static
// rank-ordered schedule (SimMode::kLevel) must be bit-identical to the
// dense evaluate-everything sweep (SimMode::kDense) — same net values
// every cycle, same VCD bytes, same evolved genomes and generation
// counts — across seeds and under randomized external stimulus. These
// suites are the contract of the inputs()/drives() declarations: a
// sensitivity list missing a net evaluate() actually reads, or a drives()
// set missing a written wire, shows up here as a lockstep divergence
// naming the first differing net.
//
// The static schedule additionally pins its evaluate() and commit counts
// on the GAP against a golden table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/discipulus.hpp"
#include "core/evolution_engine.hpp"
#include "fpga/bitstream.hpp"
#include "fpga/config_loader.hpp"
#include "gap/gap_top.hpp"
#include "rtl/simulator.hpp"
#include "rtl/vcd.hpp"

namespace leo {
namespace {

constexpr rtl::SimMode kAllModes[] = {rtl::SimMode::kDense,
                                      rtl::SimMode::kLevel};

const char* mode_name(rtl::SimMode mode) {
  switch (mode) {
    case rtl::SimMode::kDense: return "dense";
    case rtl::SimMode::kLevel: return "level";
  }
  return "?";
}

/// Asserts every net of every tree identical to sims[0] (the dense
/// reference). Returns false (with a failure already recorded) on the
/// first divergence.
bool compare_all_nets(const std::vector<rtl::Simulator*>& sims,
                      std::uint64_t cycle) {
  const auto& ref_mods = sims[0]->modules();
  for (std::size_t s = 1; s < sims.size(); ++s) {
    const auto& mods = sims[s]->modules();
    EXPECT_EQ(ref_mods.size(), mods.size());
    for (std::size_t m = 0; m < ref_mods.size(); ++m) {
      const auto& ref_nets = ref_mods[m]->nets();
      const auto& nets = mods[m]->nets();
      for (std::size_t n = 0; n < ref_nets.size(); ++n) {
        if (ref_nets[n]->value_u64() != nets[n]->value_u64()) {
          ADD_FAILURE() << "cycle " << cycle << ": net "
                        << ref_nets[n]->full_name() << " "
                        << mode_name(sims[0]->mode()) << "="
                        << ref_nets[n]->value_u64() << " "
                        << mode_name(sims[s]->mode()) << "="
                        << nets[n]->value_u64();
          return false;
        }
      }
    }
  }
  return true;
}

/// Steps all simulators in lockstep for `cycles`, comparing every net
/// after every cycle. Returns false on first divergence so callers can
/// stop early.
bool lockstep_compare(const std::vector<rtl::Simulator*>& sims,
                      std::uint64_t cycles) {
  for (std::uint64_t c = 0; c < cycles; ++c) {
    for (auto* sim : sims) sim->step();
    if (!compare_all_nets(sims, c + 1)) return false;
  }
  return true;
}

TEST(SimEquivalence, GapTopLockstepAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 7u, 1999u}) {
    gap::GapParams params;
    std::vector<std::unique_ptr<gap::GapTop>> tops;
    std::vector<std::unique_ptr<rtl::Simulator>> sims;
    std::vector<rtl::Simulator*> raw;
    for (const auto mode : kAllModes) {
      tops.push_back(std::make_unique<gap::GapTop>(nullptr, "gap", params,
                                                   seed));
      sims.push_back(std::make_unique<rtl::Simulator>(*tops.back(), mode));
      raw.push_back(sims.back().get());
    }
    if (!lockstep_compare(raw, 20'000)) {
      FAIL() << "divergence at seed " << seed;
    }
  }
}

TEST(SimEquivalence, GapFullRunSameGenomeAndGenerations) {
  for (const std::uint64_t seed : {3u, 11u}) {
    gap::GapParams params;
    struct Run {
      std::uint64_t cycles, generations, genome, evaluations;
      unsigned fitness;
    };
    std::vector<Run> runs;
    for (const auto mode : kAllModes) {
      gap::GapTop top(nullptr, "gap", params, seed);
      rtl::Simulator sim(top, mode);
      ASSERT_TRUE(
          sim.run_until([&] { return top.done.read(); }, 20'000'000))
          << mode_name(mode) << " seed " << seed;
      runs.push_back({sim.cycles(), top.generation(), top.best_genome(),
                      sim.evaluations(), top.best_fitness()});
    }
    for (std::size_t s = 1; s < runs.size(); ++s) {
      EXPECT_EQ(runs[0].cycles, runs[s].cycles) << "seed " << seed;
      EXPECT_EQ(runs[0].generations, runs[s].generations) << "seed " << seed;
      EXPECT_EQ(runs[0].genome, runs[s].genome) << "seed " << seed;
      EXPECT_EQ(runs[0].fitness, runs[s].fitness) << "seed " << seed;
    }
    // Work ordering: the static schedule does strictly less evaluate()
    // work than the dense sweep.
    EXPECT_LT(runs[1].evaluations, runs[0].evaluations);
  }
}

TEST(SimEquivalence, DiscipulusTopLockstepWithExternalStimulus) {
  core::DiscipulusParams params;
  params.controller.cycles_per_phase = 50;  // fast phases: more activity
  std::vector<std::unique_ptr<core::DiscipulusTop>> tops;
  std::vector<std::unique_ptr<rtl::Simulator>> sims;
  std::vector<rtl::Simulator*> raw;
  for (const auto mode : kAllModes) {
    tops.push_back(std::make_unique<core::DiscipulusTop>(nullptr, "dx",
                                                         params, 5));
    sims.push_back(std::make_unique<rtl::Simulator>(*tops.back(), mode));
    raw.push_back(sims.back().get());
  }
  // External pokes between steps (genome override, sensors) must reach
  // the sparse kernels exactly like the dense sweep.
  const std::uint64_t tripod = 0x92C49A6D3ULL & ((1ULL << 36) - 1);
  for (auto& top : tops) {
    top->use_external_genome.write(true);
    top->external_genome.write(tripod);
    top->ground_sensors.write(0x2A);
  }
  ASSERT_TRUE(lockstep_compare(raw, 2'000));
  for (auto& top : tops) {
    top->ground_sensors.write(0x15);
    top->obstacle_sensors.write(0x3F);
  }
  ASSERT_TRUE(lockstep_compare(raw, 2'000));
}

// Randomized poke-fuzz: a seeded stream of sensor/genome pokes at random
// intervals, in bursts of random length, on both kernels. Covers stimulus
// schedules the structured tests above never hit — in particular pokes
// landing while the modules that read them are otherwise idle.
TEST(SimEquivalence, DiscipulusRandomizedPokeFuzzLockstep) {
  std::mt19937_64 rng(0xD15C1BULL);
  core::DiscipulusParams params;
  params.controller.cycles_per_phase = 20;
  std::vector<std::unique_ptr<core::DiscipulusTop>> tops;
  std::vector<std::unique_ptr<rtl::Simulator>> sims;
  std::vector<rtl::Simulator*> raw;
  for (const auto mode : kAllModes) {
    tops.push_back(std::make_unique<core::DiscipulusTop>(nullptr, "dx",
                                                         params, 77));
    sims.push_back(std::make_unique<rtl::Simulator>(*tops.back(), mode));
    raw.push_back(sims.back().get());
  }
  for (int round = 0; round < 200; ++round) {
    // Occasional mid-run reset: both kernels must re-settle from the
    // reset state identically.
    if (round == 66 || round == 150) {
      for (auto* sim : raw) sim->reset();
      ASSERT_TRUE(compare_all_nets(raw, 0)) << "post-reset, round " << round;
    }
    // Poke a random subset of the external inputs, same values everywhere.
    if (rng() % 4 != 0) {
      const auto ground = static_cast<std::uint8_t>(rng());
      const auto obstacle = static_cast<std::uint8_t>(rng());
      const bool use_ext = (rng() % 2) != 0;
      const std::uint64_t genome = rng();
      for (auto& top : tops) {
        top->ground_sensors.write(ground);
        top->obstacle_sensors.write(obstacle);
        top->use_external_genome.write(use_ext);
        top->external_genome.write(genome);
      }
    }
    const std::uint64_t burst = 1 + rng() % 16;
    if (!lockstep_compare(raw, burst)) {
      FAIL() << "divergence in fuzz round " << round;
    }
  }
}

// Same idea for the input-less trees: the stimulus is the random burst
// schedule itself (kernels disagree most easily around phase boundaries,
// which random burst lengths sample far better than fixed strides).
TEST(SimEquivalence, GapAndLoaderRandomizedBurstFuzzLockstep) {
  std::mt19937_64 rng(0x6A90BULL);
  for (int trial = 0; trial < 3; ++trial) {
    const std::uint64_t seed = rng();
    gap::GapParams params;
    std::vector<std::unique_ptr<gap::GapTop>> tops;
    std::vector<std::unique_ptr<rtl::Simulator>> sims;
    std::vector<rtl::Simulator*> raw;
    for (const auto mode : kAllModes) {
      tops.push_back(std::make_unique<gap::GapTop>(nullptr, "gap", params,
                                                   seed));
      sims.push_back(std::make_unique<rtl::Simulator>(*tops.back(), mode));
      raw.push_back(sims.back().get());
    }
    std::uint64_t cycles = 0;
    while (cycles < 5'000) {
      if (rng() % 8 == 0) {
        // run_until with a shared predicate: all kernels must stop on the
        // same cycle (the predicate reads a net proven identical above).
        const std::uint64_t budget = 1 + rng() % 64;
        cycles += budget;
        std::vector<bool> fired;
        for (std::size_t s = 0; s < raw.size(); ++s) {
          fired.push_back(raw[s]->run_until(
              [&] { return tops[s]->done.read(); }, budget));
        }
        for (std::size_t s = 1; s < raw.size(); ++s) {
          EXPECT_EQ(fired[0], fired[s]);
          EXPECT_EQ(raw[0]->cycles(), raw[s]->cycles());
        }
        ASSERT_TRUE(compare_all_nets(raw, cycles));
        if (fired[0]) break;  // evolution finished early on this trial
      } else {
        const std::uint64_t burst = 1 + rng() % 64;
        cycles += burst;
        if (!lockstep_compare(raw, burst)) {
          FAIL() << "GAP divergence, trial " << trial << " near cycle "
                 << cycles;
        }
      }
    }
  }

  const std::vector<bool> frame = fpga::pack_genome(0x5A5A5A5A5ULL);
  std::vector<std::unique_ptr<fpga::ConfigLoader>> loaders;
  std::vector<std::unique_ptr<rtl::Simulator>> sims;
  std::vector<rtl::Simulator*> raw;
  for (const auto mode : kAllModes) {
    loaders.push_back(
        std::make_unique<fpga::ConfigLoader>(nullptr, "loader", frame));
    sims.push_back(std::make_unique<rtl::Simulator>(*loaders.back(), mode));
    raw.push_back(sims.back().get());
  }
  std::uint64_t remaining = frame.size() + 8;
  while (remaining > 0) {
    const std::uint64_t burst = std::min<std::uint64_t>(1 + rng() % 32,
                                                        remaining);
    remaining -= burst;
    ASSERT_TRUE(lockstep_compare(raw, burst));
  }
  EXPECT_TRUE(loaders[0]->valid.read());
}

TEST(SimEquivalence, ConfigLoaderLockstep) {
  const std::vector<bool> frame = fpga::pack_genome(0xABCDEF123ULL);
  std::vector<std::unique_ptr<fpga::ConfigLoader>> loaders;
  std::vector<std::unique_ptr<rtl::Simulator>> sims;
  std::vector<rtl::Simulator*> raw;
  for (const auto mode : kAllModes) {
    loaders.push_back(
        std::make_unique<fpga::ConfigLoader>(nullptr, "loader", frame));
    sims.push_back(std::make_unique<rtl::Simulator>(*loaders.back(), mode));
    raw.push_back(sims.back().get());
  }
  ASSERT_TRUE(lockstep_compare(raw, frame.size() + 8));
  EXPECT_TRUE(loaders[0]->valid.read());
}

TEST(SimEquivalence, VcdDumpsAreByteIdentical) {
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> paths;
  for (const auto mode : kAllModes) {
    gap::GapParams params;
    gap::GapTop top(nullptr, "gap", params, 42);
    rtl::Simulator sim(top, mode);
    const std::string path =
        dir + "/leo_equiv_" + mode_name(mode) + ".vcd";
    paths.push_back(path);
    {
      rtl::VcdWriter vcd(path, top);
      sim.attach_vcd(&vcd);
      sim.run(5'000);
    }
  }
  std::vector<std::string> dumps;
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    dumps.push_back(ss.str());
    std::remove(p.c_str());
  }
  EXPECT_FALSE(dumps[0].empty());
  EXPECT_EQ(dumps[0], dumps[1]);
}

// VCD attach mid-run: the first sample after attaching dumps everything,
// then deltas, no matter which kernel ran the untraced prefix.
TEST(SimEquivalence, VcdAttachMidRunIsByteIdenticalAcrossKernels) {
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> dumps;
  for (const auto mode : kAllModes) {
    gap::GapParams params;
    gap::GapTop top(nullptr, "gap", params, 17);
    rtl::Simulator sim(top, mode);
    sim.run(3'000);
    const std::string path =
        dir + "/leo_equiv_mid_" + mode_name(mode) + ".vcd";
    {
      rtl::VcdWriter vcd(path, top);
      sim.attach_vcd(&vcd);
      sim.run(2'000);
    }
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    dumps.push_back(ss.str());
    std::remove(path.c_str());
  }
  EXPECT_FALSE(dumps[0].empty());
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(SimEquivalence, EvolveHardwareIdenticalResultsUnderAllModes) {
  core::EvolutionConfig config;  // default sim_mode is kLevel
  config.backend = core::Backend::kHardware;
  config.seed = 9;
  core::EvolutionConfig dense_config = config;
  dense_config.sim_mode = rtl::SimMode::kDense;

  const core::EvolutionResult lv = core::evolve(config);
  const core::EvolutionResult de = core::evolve(dense_config);
  EXPECT_TRUE(lv.reached_target);
  EXPECT_TRUE(de.reached_target);
  EXPECT_EQ(de.generations, lv.generations);
  EXPECT_EQ(de.best_genome, lv.best_genome);
  EXPECT_EQ(de.best_fitness, lv.best_fitness);
  EXPECT_EQ(de.clock_cycles, lv.clock_cycles);
  EXPECT_EQ(de.evaluations, lv.evaluations);
}

// --- designs the static schedule cannot rank ---

/// One stage of a (stable) combinational module cycle: copies its foreign
/// input wire to its own output wire.
class CopyStage final : public rtl::Module {
 public:
  rtl::Wire<std::uint8_t> out;
  const rtl::Wire<std::uint8_t>* in = nullptr;

  CopyStage(Module* parent, std::string name)
      : Module(parent, std::move(name)), out(this, "out", 8) {}

  void evaluate() override { out.write(in->read()); }
  [[nodiscard]] rtl::Nets inputs() const override { return {in}; }
  [[nodiscard]] rtl::Nets drives() const override { return {&out}; }
};

class QuietTop : public rtl::Module {
 public:
  using rtl::Module::Module;
  [[nodiscard]] rtl::Nets inputs() const override { return {}; }
  [[nodiscard]] rtl::Nets drives() const override { return {}; }
};

TEST(SimEquivalence, DeclaredCombinationalCycleThrowsUnderLevel) {
  QuietTop top(nullptr, "looptop");
  CopyStage a(&top, "a");
  CopyStage b(&top, "b");
  CopyStage c(&top, "c");  // downstream of the loop, not on it
  a.in = &b.out;
  b.in = &a.out;
  c.in = &a.out;
  try {
    rtl::Simulator sim(top, rtl::SimMode::kLevel);
    FAIL() << "kLevel ranked a cyclic design";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("combinational cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("looptop.a"), std::string::npos) << what;
    EXPECT_NE(what.find("looptop.b"), std::string::npos) << what;
    EXPECT_EQ(what.find("looptop.c"), std::string::npos) << what;
    EXPECT_NE(what.find("SimMode::kDense"), std::string::npos) << what;
  }
  // The dense sweep still simulates the (stable) loop fine, and does the
  // dense amount of work: every module on every pass.
  rtl::Simulator sim(top, rtl::SimMode::kDense);
  sim.run(10);
  EXPECT_EQ(sim.cycles(), 10u);
  EXPECT_EQ(sim.evaluations() % sim.modules().size(), 0u);
}

// --- golden evaluate() counts ---

/// (cycles, evaluate() calls, registers committed) of full
/// default-parameter GAP runs to the target fitness under the static
/// schedule, seeds 1..64. The evolution benchmark pins the same activation
/// count on its hardware fleet, so a schedule that activates any module
/// more or less often fails here first — even when every net value still
/// matches the dense sweep. The commit count pins the other half of a
/// cycle's work: only the registers set_next() scheduled, each once.
struct GapGolden {
  std::uint64_t seed, cycles, evaluations, commits;
};
constexpr GapGolden kGapGolden[] = {
    {1, 119402u, 495489u, 1092056u},
    {2, 13554u, 56124u, 123674u},
    {3, 6742u, 27841u, 61348u},
    {4, 10672u, 44154u, 97301u},
    {5, 3336u, 13703u, 30189u},
    {6, 27702u, 114857u, 253116u},
    {7, 11982u, 49583u, 109284u},
    {8, 9886u, 40887u, 90110u},
    {9, 16174u, 66986u, 147642u},
    {10, 7528u, 31098u, 68537u},
    {11, 7528u, 31101u, 68537u},
    {12, 9100u, 37617u, 82927u},
    {13, 13816u, 57204u, 126071u},
    {14, 4908u, 20228u, 44565u},
    {15, 6480u, 26751u, 58949u},
    {16, 5956u, 24580u, 54157u},
    {17, 8314u, 34367u, 75738u},
    {18, 5956u, 24579u, 54155u},
    {19, 8314u, 34369u, 75732u},
    {20, 15912u, 65906u, 145249u},
    {21, 18532u, 76773u, 169215u},
    {22, 7004u, 28935u, 63745u},
    {23, 17484u, 72421u, 159625u},
    {24, 10148u, 41980u, 92515u},
    {25, 21676u, 89828u, 197979u},
    {26, 17222u, 71344u, 157230u},
    {27, 9362u, 38715u, 85322u},
    {28, 55998u, 232246u, 511984u},
    {29, 11196u, 46329u, 102099u},
    {30, 10410u, 43058u, 94906u},
    {31, 4908u, 20225u, 44567u},
    {32, 12768u, 52852u, 116479u},
    {33, 22724u, 94182u, 207565u},
    {34, 6480u, 26760u, 58961u},
    {35, 10672u, 44159u, 97307u},
    {36, 20366u, 84390u, 185996u},
    {37, 8838u, 36544u, 80526u},
    {38, 3336u, 13699u, 30189u},
    {39, 13554u, 56120u, 123672u},
    {40, 11458u, 47417u, 104494u},
    {41, 101586u, 421502u, 929068u},
    {42, 28488u, 118100u, 260301u},
    {43, 9362u, 38720u, 85316u},
    {44, 11196u, 46327u, 102099u},
    {45, 8576u, 35460u, 78135u},
    {46, 17746u, 73516u, 162026u},
    {47, 13292u, 55026u, 121271u},
    {48, 12768u, 52851u, 116475u},
    {49, 7004u, 28923u, 63745u},
    {50, 29536u, 122439u, 269889u},
    {51, 6742u, 27845u, 61352u},
    {52, 10148u, 41986u, 92509u},
    {53, 9886u, 40887u, 90116u},
    {54, 5694u, 23488u, 51758u},
    {55, 12244u, 50682u, 111683u},
    {56, 4908u, 20228u, 44569u},
    {57, 9624u, 39810u, 87713u},
    {58, 13816u, 57201u, 126069u},
    {59, 17222u, 71346u, 157230u},
    {60, 20366u, 84394u, 185990u},
    {61, 8314u, 34366u, 75734u},
    {62, 41326u, 171374u, 377750u},
    {63, 80888u, 335567u, 739695u},
    {64, 10148u, 41977u, 92509u},
};

TEST(RtlGolden, GapEvaluationCounts) {
  for (const GapGolden& g : kGapGolden) {
    gap::GapParams params;
    gap::GapTop top(nullptr, "gap", params, g.seed);
    rtl::Simulator sim(top, rtl::SimMode::kLevel);
    ASSERT_EQ(sim.mode(), rtl::SimMode::kLevel);
    ASSERT_TRUE(sim.run_until([&] { return top.done.read(); }, 20'000'000))
        << "seed " << g.seed;
    EXPECT_EQ(sim.cycles(), g.cycles) << "seed " << g.seed;
    EXPECT_EQ(sim.evaluations(), g.evaluations) << "seed " << g.seed;
    EXPECT_EQ(sim.commits(), g.commits) << "seed " << g.seed;

    // The same run through the one GAP run loop reports the same counts.
    core::EvolutionConfig config;
    config.backend = core::Backend::kHardware;
    config.sim_mode = rtl::SimMode::kLevel;
    config.seed = g.seed;
    const core::EvolutionResult r = core::evolve(config);
    ASSERT_TRUE(r.reached_target) << "seed " << g.seed;
    EXPECT_EQ(r.clock_cycles, g.cycles) << "seed " << g.seed;
    EXPECT_EQ(r.rtl_evaluations, g.evaluations) << "seed " << g.seed;
    EXPECT_EQ(r.rtl_commits, g.commits) << "seed " << g.seed;
  }
}

}  // namespace
}  // namespace leo
