// Tests for the evolution service: config keys, checkpoint round trips,
// the deterministic result cache (one LRU), batch submission,
// admission backpressure, in-flight coalescing, and job scheduling/
// cancellation.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fitness/rules.hpp"
#include "obs/metrics.hpp"
#include "serve/batch.hpp"
#include "serve/checkpoint.hpp"
#include "serve/config_hash.hpp"
#include "serve/trials.hpp"

namespace leo::serve {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::registry().counter(name).value();
}

core::EvolutionConfig base_config(std::uint64_t seed = 7) {
  core::EvolutionConfig config;
  config.backend = core::Backend::kSoftware;
  config.seed = seed;
  return config;
}

/// A config whose population can never improve: no crossover, no mutation.
/// Used as a long-running blocker for scheduling tests (seed chosen so the
/// random initial population does not contain an optimum — deterministic).
core::EvolutionConfig stuck_config(std::uint64_t seed = 424242) {
  core::EvolutionConfig config = base_config(seed);
  config.ga.mutations_per_generation = 0;
  config.ga.crossover_threshold = util::Prob8::from_double(0.0);
  return config;
}

/// A stuck config that runs for many seconds unless cancelled: the default
/// 100 000-generation cap ends a stuck_config() run within a fraction of a
/// second in an optimized build, too soon to hold a worker through a test.
core::EvolutionConfig endless_config(std::uint64_t seed = 424242) {
  core::EvolutionConfig config = stuck_config(seed);
  config.max_generations = 20'000'000;
  return config;
}

// ---- config keys -------------------------------------------------------

TEST(ConfigKey, DeterministicForEqualConfigs) {
  EXPECT_EQ(config_key(base_config()), config_key(base_config()));
}

TEST(ConfigKey, EveryFieldChangesTheKey) {
  std::set<std::uint64_t> keys;
  keys.insert(config_key(base_config()));

  std::vector<core::EvolutionConfig> variants;
  auto vary = [&](auto mutate) {
    core::EvolutionConfig c = base_config();
    mutate(c);
    variants.push_back(c);
  };
  vary([](auto& c) { c.backend = core::Backend::kHardware; });
  vary([](auto& c) { c.seed = 8; });
  vary([](auto& c) { c.max_generations = 99; });
  vary([](auto& c) { c.track_history = true; });
  vary([](auto& c) { c.spec.w_equilibrium = 4; });
  vary([](auto& c) { c.spec.w_symmetry = 5; });
  vary([](auto& c) { c.spec.w_coherence = 6; });
  vary([](auto& c) { c.spec.w_support = 7; });
  vary([](auto& c) { c.spec.use_equilibrium = false; });
  vary([](auto& c) { c.spec.use_symmetry = false; });
  vary([](auto& c) { c.spec.use_coherence = false; });
  vary([](auto& c) { c.spec.use_support = true; });
  vary([](auto& c) { c.ga.population_size = 64; });
  vary([](auto& c) { c.ga.selection_threshold = util::Prob8::from_double(0.5); });
  vary([](auto& c) { c.ga.crossover_threshold = util::Prob8::from_double(0.5); });
  vary([](auto& c) { c.ga.mutations_per_generation = 16; });
  vary([](auto& c) { c.gap.population_size = 64; });
  vary([](auto& c) { c.gap.selection_threshold = util::Prob8::from_double(0.5); });
  vary([](auto& c) { c.gap.crossover_threshold = util::Prob8::from_double(0.5); });
  vary([](auto& c) { c.gap.mutations_per_generation = 16; });
  vary([](auto& c) { c.gap.pipelined = false; });
  vary([](auto& c) { c.gap.target_fitness = 59; });

  for (const auto& v : variants) keys.insert(config_key(v));
  EXPECT_EQ(keys.size(), variants.size() + 1)
      << "some config field does not reach the cache key";
}

TEST(ConfigKey, EncodeDecodeRoundTrip) {
  core::EvolutionConfig config = base_config(123);
  config.spec.use_support = true;
  config.max_generations = 777;

  const std::vector<std::uint8_t> bytes = encode_config(config);
  detail::ByteReader reader(bytes);
  const core::EvolutionConfig back = decode_config(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(config_key(back), config_key(config));
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.spec.use_support, true);
  EXPECT_EQ(back.max_generations, 777u);
}

// ---- checkpoint round trip ---------------------------------------------

TEST(Checkpoint, SerializeDeserializeRoundTrip) {
  core::EvolutionSession session(base_config(21));
  core::RunControl control;
  control.generation_budget = 5;
  (void)session.run(control);

  const Snapshot snap = make_snapshot(session);
  const std::vector<std::uint8_t> bytes = serialize_snapshot(snap);
  const Snapshot back = deserialize_snapshot(bytes);

  EXPECT_EQ(back.config_key, snap.config_key);
  EXPECT_EQ(back.rng_state, snap.rng_state);
  EXPECT_EQ(back.state.generation, snap.state.generation);
  EXPECT_EQ(back.state.evaluations, snap.state.evaluations);
  EXPECT_EQ(back.state.best.genome, snap.state.best.genome);
  EXPECT_EQ(back.state.best.fitness, snap.state.best.fitness);
  ASSERT_EQ(back.state.population.size(), snap.state.population.size());
  for (std::size_t i = 0; i < snap.state.population.size(); ++i) {
    EXPECT_EQ(back.state.population[i].genome, snap.state.population[i].genome);
    EXPECT_EQ(back.state.population[i].fitness,
              snap.state.population[i].fitness);
  }
}

// Byte-exact LEOS layout guard: digests of snapshots of budget-suspended
// runs, captured before the GA moved from bit-vector to u64 genomes. Covers
// history (diversity doubles) and the fixed 36-bit width and elitism slots.
TEST(Checkpoint, GoldenSnapshotDigests) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t budget;
    bool track_history;
    std::size_t bytes;
    std::uint64_t digest;
  };
  constexpr Case kCases[] = {
    {21, 5, false, 688, 0xdac980a1d549ec8cULL},
    {7, 20, true, 1444, 0xd1014e09f8c9ee31ULL},
    {3, 1, false, 688, 0x7c8f2f7c66d9ee05ULL},
  };
  auto fnv1a = [](const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  for (const Case& c : kCases) {
    core::EvolutionConfig config = base_config(c.seed);
    config.track_history = c.track_history;
    core::EvolutionSession session(config);
    core::RunControl control;
    control.generation_budget = c.budget;
    (void)session.run(control);
    const std::vector<std::uint8_t> bytes =
        serialize_snapshot(make_snapshot(session));
    EXPECT_EQ(bytes.size(), c.bytes) << "seed " << c.seed;
    EXPECT_EQ(fnv1a(bytes), c.digest) << "seed " << c.seed;
    EXPECT_EQ(serialize_snapshot(deserialize_snapshot(bytes)), bytes)
        << "seed " << c.seed;
  }
}

TEST(Checkpoint, RejectsCorruptInput) {
  core::EvolutionSession session(base_config(3));
  std::vector<std::uint8_t> bytes = serialize_snapshot(make_snapshot(session));

  EXPECT_THROW(deserialize_snapshot({}), std::runtime_error);

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(deserialize_snapshot(bad_magic), std::runtime_error);

  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 9);
  EXPECT_THROW(deserialize_snapshot(truncated), std::runtime_error);

  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(deserialize_snapshot(trailing), std::runtime_error);

  // Flip a config byte: the stored key no longer matches the content.
  std::vector<std::uint8_t> tampered = bytes;
  tampered[25] ^= 0x01;  // inside the config block
  EXPECT_THROW(deserialize_snapshot(tampered), std::runtime_error);
}

/// Offset of the best individual's width field: header (magic, version,
/// codec version, key), config length + block, RNG state, generation and
/// evaluation counters.
std::size_t best_individual_offset(const core::EvolutionConfig& config) {
  return 4 + 4 + 4 + 8 + 4 + encode_config(config).size() + 32 + 8 + 8;
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(Checkpoint, RejectsInvalidGenomeFields) {
  core::EvolutionConfig config = base_config(5);
  config.track_history = true;
  core::EvolutionSession session(config);
  const std::vector<std::uint8_t> bytes =
      serialize_snapshot(make_snapshot(session));
  const std::size_t at = best_individual_offset(config);
  ASSERT_NO_THROW((void)deserialize_snapshot(bytes));

  for (const std::uint32_t width : {0u, 35u, 37u, 64u, 65u, 1u << 20}) {
    std::vector<std::uint8_t> bad = bytes;
    put_u32(bad, at, width);
    EXPECT_THROW((void)deserialize_snapshot(bad), std::runtime_error)
        << "width " << width;
  }
  // Genome bit 36 (above the 36-bit width): byte 4 of the genome word.
  std::vector<std::uint8_t> high_bit = bytes;
  high_bit[at + 4 + 4] |= 0x10;
  EXPECT_THROW((void)deserialize_snapshot(high_bit), std::runtime_error);
  // A non-canonical "true" in the config block (track_history byte 3):
  // it decodes to the same config and key, but would not re-serialize.
  std::vector<std::uint8_t> bool_byte = bytes;
  bool_byte[4 + 4 + 4 + 8 + 4 + 1 + 8 + 8] = 3;
  EXPECT_THROW((void)deserialize_snapshot(bool_byte), std::runtime_error);
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& bytes,
                      std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= std::uint32_t{bytes[at + i]} << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& bytes,
                      std::size_t at) {
  return get_u32(bytes, at) | std::uint64_t{get_u32(bytes, at + 4)} << 32;
}

// A stored fitness is the score of its genome under the config's spec;
// otherwise a resumed run could report a target it never reached.
TEST(Checkpoint, RejectsFitnessThatDisagreesWithGenome) {
  const core::EvolutionConfig config = base_config(21);
  core::EvolutionSession session(config);
  core::RunControl control;
  control.generation_budget = 5;
  (void)session.run(control);
  const std::vector<std::uint8_t> bytes =
      serialize_snapshot(make_snapshot(session));
  ASSERT_NO_THROW((void)deserialize_snapshot(bytes));

  // Each individual: width u32, genome u64, fitness u32. The population
  // follows the best individual and its u32 size.
  const std::size_t best = best_individual_offset(config);
  const std::size_t member = best + 16 + 4;
  const std::uint32_t best_fitness = get_u32(bytes, best + 12);
  ASSERT_EQ(best_fitness, session.state().best.fitness);
  ASSERT_LT(best_fitness, 60u);

  std::vector<std::uint8_t> best_rewritten = bytes;
  put_u32(best_rewritten, best + 12, 60);
  EXPECT_THROW((void)deserialize_snapshot(best_rewritten), std::runtime_error);

  std::vector<std::uint8_t> member_rewritten = bytes;
  put_u32(member_rewritten, member + 12, get_u32(bytes, member + 12) + 1);
  EXPECT_THROW((void)deserialize_snapshot(member_rewritten),
               std::runtime_error);

  // Flip the first member genome bit that changes its score, leaving the
  // stored fitness stale.
  const std::uint64_t genome = get_u64(bytes, member + 4);
  std::size_t bit = 0;
  while (bit < 36 && fitness::score(genome ^ (std::uint64_t{1} << bit),
                                    config.spec) ==
                         fitness::score(genome, config.spec)) {
    ++bit;
  }
  ASSERT_LT(bit, 36u);
  std::vector<std::uint8_t> genome_flipped = bytes;
  genome_flipped[member + 4 + bit / 8] ^=
      static_cast<std::uint8_t>(1u << (bit % 8));
  EXPECT_THROW((void)deserialize_snapshot(genome_flipped), std::runtime_error);
}

// The genome width slots of both backends and the software GA's elitism
// slot of the config block hold the paper's fixed values (36, 0); any
// other value is corruption.
TEST(Checkpoint, RejectsNonPaperGenomeSlots) {
  const std::vector<std::uint8_t> bytes = encode_config(base_config());
  // backend u8, seed u64, max_generations u64, track_history u8, four
  // weights u32, four switches u8, then ga: population u64, width u64,
  // two thresholds u8, mutation count u32, elitism u8; then gap:
  // population u32, width u32.
  const std::size_t width_at = 1 + 8 + 8 + 1 + 16 + 4 + 8;
  const std::size_t elitism_at = width_at + 8 + 1 + 1 + 4;
  const std::size_t gap_width_at = elitism_at + 1 + 4;
  ASSERT_EQ(get_u64(bytes, width_at), 36u);
  ASSERT_EQ(bytes[elitism_at], 0u);
  ASSERT_EQ(get_u32(bytes, gap_width_at), 36u);
  auto decode = [](const std::vector<std::uint8_t>& block) {
    detail::ByteReader reader(block);
    return decode_config(reader);
  };
  ASSERT_NO_THROW((void)decode(bytes));

  for (const std::size_t at : {width_at, gap_width_at}) {
    for (const std::uint32_t width : {40u, 64u}) {
      std::vector<std::uint8_t> bad = bytes;
      put_u32(bad, at, width);
      EXPECT_THROW((void)decode(bad), std::runtime_error)
          << "slot at " << at << ", width " << width;
    }
  }
  std::vector<std::uint8_t> elitism = bytes;
  elitism[elitism_at] = 1;
  EXPECT_THROW((void)decode(elitism), std::runtime_error);
}

// The engine counters agree with each other and with the config: a GA
// state holds config.ga.population_size individuals and has evaluated
// (generation + 1) populations. Otherwise a resumed run reports counts it
// never ran.
TEST(Checkpoint, RejectsInconsistentCounters) {
  const core::EvolutionConfig config = base_config(21);
  core::EvolutionSession session(config);
  core::RunControl control;
  control.generation_budget = 5;
  (void)session.run(control);
  const Snapshot snap = make_snapshot(session);
  const std::vector<std::uint8_t> bytes = serialize_snapshot(snap);
  ASSERT_NO_THROW((void)deserialize_snapshot(bytes));

  // The generation and evaluation counters (u64 each) precede the best
  // individual.
  const std::size_t evaluations = best_individual_offset(config) - 8;
  const std::size_t generation = evaluations - 8;
  ASSERT_EQ(get_u64(bytes, generation), 5u);
  ASSERT_EQ(get_u64(bytes, evaluations), 6u * 32u);

  // (generation, evaluations) pairs that break the rule: bit 24 and bit 0
  // of the evaluations flipped, the generation off by one either way, and
  // a generation whose successor wraps to zero.
  const std::uint64_t kPairs[][2] = {
      {5, 192 + (std::uint64_t{1} << 24)},
      {5, 193},
      {4, 192},
      {6, 192},
      {~std::uint64_t{0}, 0},
  };
  for (const auto& [g, e] : kPairs) {
    std::vector<std::uint8_t> bad = bytes;
    put_u32(bad, generation, static_cast<std::uint32_t>(g));
    put_u32(bad, generation + 4, static_cast<std::uint32_t>(g >> 32));
    put_u32(bad, evaluations, static_cast<std::uint32_t>(e));
    put_u32(bad, evaluations + 4, static_cast<std::uint32_t>(e >> 32));
    EXPECT_THROW((void)deserialize_snapshot(bad), std::runtime_error)
        << "generation " << g << ", evaluations " << e;
  }

  // One individual short of the config, with counters consistent with the
  // shorter population.
  Snapshot short_population = snap;
  short_population.state.population.pop_back();
  short_population.state.evaluations =
      (short_population.state.generation + 1) *
      short_population.state.population.size();
  EXPECT_THROW(
      (void)deserialize_snapshot(serialize_snapshot(short_population)),
      std::runtime_error);

  // A config of zero individuals, with its key recomputed, and an empty
  // population agree on the count; the decoder must still refuse it
  // rather than divide by zero.
  Snapshot no_population = snap;
  no_population.config.ga.population_size = 0;
  no_population.config_key = config_key(no_population.config);
  no_population.state.population.clear();
  EXPECT_THROW((void)deserialize_snapshot(serialize_snapshot(no_population)),
               std::runtime_error);
}

/// Every truncation and random single/double bit flip of a snapshot either
/// is rejected with std::runtime_error or decodes to a snapshot that
/// re-serializes to exactly the corrupted bytes: the decoder accepts only
/// canonical encodings and never crashes (run under ASan/UBSan in CI).
TEST(SnapshotFuzz, TruncationAndBitFlipsThrowOrRoundTrip) {
  core::EvolutionConfig config = base_config(31);
  config.track_history = true;
  core::EvolutionSession session(config);
  core::RunControl control;
  control.generation_budget = 4;
  (void)session.run(control);
  const std::vector<std::uint8_t> bytes =
      serialize_snapshot(make_snapshot(session));

  std::size_t accepted = 0;
  auto check = [&](const std::vector<std::uint8_t>& input,
                   const std::string& what) {
    Snapshot snap;
    try {
      snap = deserialize_snapshot(input);
    } catch (const std::runtime_error&) {
      return;
    }
    ++accepted;
    ASSERT_EQ(serialize_snapshot(snap), input) << what;
  };

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    ASSERT_THROW((void)deserialize_snapshot(prefix), std::runtime_error)
        << "truncated to " << len;
  }
  const std::size_t bits = bytes.size() * 8;
  auto flip = [](std::vector<std::uint8_t>& v, std::size_t bit) {
    v[bit / 8] = static_cast<std::uint8_t>(v[bit / 8] ^ (1u << (bit % 8)));
  };
  for (std::size_t a = 0; a < bits; ++a) {
    std::vector<std::uint8_t> corrupt = bytes;
    flip(corrupt, a);
    check(corrupt, "flip " + std::to_string(a));
  }
  util::Xoshiro256 rng(107);
  for (int i = 0; i < 20'000; ++i) {
    const std::size_t a = rng.next_below(bits);
    std::size_t b = rng.next_below(bits);
    while (b == a) b = rng.next_below(bits);
    std::vector<std::uint8_t> corrupt = bytes;
    flip(corrupt, a);
    flip(corrupt, b);
    check(corrupt, "flips " + std::to_string(a) + ", " + std::to_string(b));
  }
  // Flips in free-valued fields (RNG state, history) are legitimately
  // accepted. Fitness, genome bits and the counters are not free-valued: a
  // stored fitness must be its genome's score, so only a genome flip that
  // keeps that score is accepted, and evaluations must equal
  // (generation + 1) * population, which one flip of either counter breaks.
  EXPECT_GT(accepted, 0u);
}

TEST(Checkpoint, FileRoundTrip) {
  core::EvolutionSession session(base_config(9));
  core::RunControl control;
  control.generation_budget = 3;
  (void)session.run(control);
  const Snapshot snap = make_snapshot(session);

  const std::string path = ::testing::TempDir() + "leo_snapshot_test.bin";
  save_snapshot(path, snap);
  const Snapshot back = load_snapshot(path);
  std::remove(path.c_str());

  EXPECT_EQ(serialize_snapshot(back), serialize_snapshot(snap));
  EXPECT_THROW(load_snapshot(path + ".does-not-exist"), std::runtime_error);
}

/// The acceptance criterion: suspend mid-run, resume (through a full
/// binary round trip), and reach a bit-identical EvolutionResult — same
/// best genome, generations, evaluations — as the uninterrupted run.
TEST(Checkpoint, ResumeIsBitIdenticalToUninterruptedRun) {
  const core::EvolutionConfig config = base_config(21);

  core::EvolutionSession uninterrupted(config);
  const core::EvolutionResult full = uninterrupted.run();
  ASSERT_TRUE(full.reached_target);
  ASSERT_GT(full.generations, 8u) << "seed converges too fast to interrupt";

  core::EvolutionSession first_half(config);
  core::RunControl budget;
  budget.generation_budget = full.generations / 2;
  const core::EvolutionResult partial = first_half.run(budget);
  ASSERT_FALSE(partial.reached_target);
  ASSERT_EQ(partial.generations, full.generations / 2);

  const Snapshot snap =
      deserialize_snapshot(serialize_snapshot(make_snapshot(first_half)));
  core::EvolutionSession resumed(snap.config, snap.state, snap.rng_state);
  const core::EvolutionResult finished = resumed.run();

  EXPECT_TRUE(finished.reached_target);
  EXPECT_EQ(finished.best_genome, full.best_genome);
  EXPECT_EQ(finished.best_fitness, full.best_fitness);
  EXPECT_EQ(finished.generations, full.generations);
  EXPECT_EQ(finished.evaluations, full.evaluations);
}

TEST(Checkpoint, ResumePreservesTrackedHistory) {
  core::EvolutionConfig config = base_config(33);
  config.track_history = true;

  core::EvolutionSession uninterrupted(config);
  const core::EvolutionResult full = uninterrupted.run();
  ASSERT_GT(full.generations, 4u);

  core::EvolutionSession half(config);
  core::RunControl budget;
  budget.generation_budget = full.generations / 2;
  (void)half.run(budget);
  const Snapshot snap = make_snapshot(half);
  core::EvolutionSession resumed(snap.config, snap.state, snap.rng_state);
  const core::EvolutionResult finished = resumed.run();

  ASSERT_EQ(finished.history.size(), full.history.size());
  for (std::size_t i = 0; i < full.history.size(); ++i) {
    EXPECT_EQ(finished.history[i].best_fitness, full.history[i].best_fitness);
    EXPECT_EQ(finished.history[i].diversity, full.history[i].diversity);
  }
}

// ---- the service -------------------------------------------------------

TEST(Service, SubmitMatchesDirectEvolve) {
  const core::EvolutionConfig config = base_config(7);
  const core::EvolutionResult direct = core::evolve(config);

  EvolutionService service(2);
  JobHandle handle = service.submit(config);
  const core::EvolutionResult served = handle.wait();

  EXPECT_EQ(handle.state(), JobState::kSucceeded);
  EXPECT_FALSE(handle.from_cache());
  EXPECT_EQ(served.best_genome, direct.best_genome);
  EXPECT_EQ(served.generations, direct.generations);
  EXPECT_EQ(served.evaluations, direct.evaluations);
}

TEST(Service, HardwareJobMatchesDirectEvolve) {
  core::EvolutionConfig config = base_config(7);
  config.backend = core::Backend::kHardware;
  const core::EvolutionResult direct = core::evolve(config);

  EvolutionService service(1);
  JobHandle handle = service.submit(config);
  const core::EvolutionResult served = handle.wait();

  EXPECT_EQ(handle.state(), JobState::kSucceeded);
  EXPECT_EQ(served.best_genome, direct.best_genome);
  EXPECT_EQ(served.generations, direct.generations);
  EXPECT_EQ(served.clock_cycles, direct.clock_cycles);
}

TEST(Service, HardwareJobIdenticalUnderBothSimModes) {
  // Two separate services (each with its own cache — sim_mode is
  // deliberately absent from the config hash, so one service would serve
  // the second job from the first's cache entry and prove nothing).
  core::EvolutionConfig config = base_config(7);
  config.backend = core::Backend::kHardware;
  config.sim_mode = rtl::SimMode::kLevel;
  core::EvolutionConfig dense_config = config;
  dense_config.sim_mode = rtl::SimMode::kDense;

  EvolutionService level_service(1);
  EvolutionService dense_service(1);
  const core::EvolutionResult lv = level_service.submit(config).wait();
  const core::EvolutionResult de = dense_service.submit(dense_config).wait();

  EXPECT_EQ(lv.best_genome, de.best_genome);
  EXPECT_EQ(lv.best_fitness, de.best_fitness);
  EXPECT_EQ(lv.generations, de.generations);
  EXPECT_EQ(lv.clock_cycles, de.clock_cycles);
  EXPECT_EQ(lv.evaluations, de.evaluations);
  // And because results are identical, the two modes sharing one cache
  // entry is correct: same service, different mode -> cache hit.
  JobHandle cached = level_service.submit(dense_config);
  EXPECT_EQ(cached.wait().best_genome, lv.best_genome);
  EXPECT_TRUE(cached.from_cache());
}

/// Acceptance criterion: identical (config, seed) → cached result, no
/// engine re-run.
TEST(Service, ResubmittingIdenticalJobHitsTheCache) {
  const core::EvolutionConfig config = base_config(11);
  EvolutionService service(2);

  JobHandle first = service.submit(config);
  const core::EvolutionResult a = first.wait();
  EXPECT_FALSE(first.from_cache());
  EXPECT_EQ(service.cache_stats().hits, 0u);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  EXPECT_EQ(service.cache_stats().entries, 1u);

  JobHandle second = service.submit(config);
  const core::EvolutionResult b = second.wait();
  EXPECT_TRUE(second.from_cache());
  EXPECT_EQ(second.state(), JobState::kSucceeded);
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  EXPECT_EQ(b.best_genome, a.best_genome);
  EXPECT_EQ(b.generations, a.generations);
  EXPECT_EQ(b.evaluations, a.evaluations);

  // A different seed is a different key: miss, not hit.
  JobHandle third = service.submit(base_config(12));
  (void)third.wait();
  EXPECT_FALSE(third.from_cache());
  EXPECT_EQ(service.cache_stats().misses, 2u);
}

TEST(Service, CacheCanBeBypassed) {
  const core::EvolutionConfig config = base_config(13);
  EvolutionService service(2);
  (void)service.submit(config).wait();

  JobOptions no_cache;
  no_cache.use_cache = false;
  JobHandle fresh = service.submit(config, no_cache);
  (void)fresh.wait();
  EXPECT_FALSE(fresh.from_cache());
  EXPECT_EQ(service.cache_stats().hits, 0u);
}

TEST(Service, BudgetSuspendsAndResumeCompletesBitIdentically) {
  const core::EvolutionConfig config = base_config(21);
  const core::EvolutionResult full = core::evolve(config);
  ASSERT_GT(full.generations, 8u);

  EvolutionService service(2);
  JobOptions budget;
  budget.generation_budget = full.generations / 2;
  budget.use_cache = false;
  JobHandle paused = service.submit(config, budget);
  const core::EvolutionResult partial = paused.wait();
  EXPECT_EQ(paused.state(), JobState::kSuspended);
  EXPECT_FALSE(partial.reached_target);
  EXPECT_EQ(partial.generations, full.generations / 2);

  const auto snap = paused.snapshot();
  ASSERT_TRUE(snap.has_value());
  JobHandle resumed = service.resume(*snap);
  const core::EvolutionResult finished = resumed.wait();
  EXPECT_EQ(resumed.state(), JobState::kSucceeded);
  EXPECT_EQ(finished.best_genome, full.best_genome);
  EXPECT_EQ(finished.generations, full.generations);
  EXPECT_EQ(finished.evaluations, full.evaluations);
}

/// A job's snapshot is the state it stopped in. Cancelling a running job
/// and resuming its snapshot under the same budget reaches exactly the
/// result of one uninterrupted run to that budget.
TEST(Service, CancelledRunResumesBitIdentically) {
  // 300 000 stuck generations, far more than run between the first
  // published progress and the cancel, so the cancel lands mid-run.
  const core::EvolutionConfig config = endless_config();
  const std::uint64_t kBudget = 300'000;
  core::RunControl control;
  control.generation_budget = kBudget;
  const core::EvolutionResult direct = core::evolve(config, control);
  ASSERT_EQ(direct.generations, kBudget);

  EvolutionService service(1);
  JobOptions options;
  options.generation_budget = kBudget;
  options.use_cache = false;
  JobHandle job = service.submit(config, options);
  while (job.progress().generation == 0) std::this_thread::yield();
  job.cancel();
  const core::EvolutionResult partial = job.wait();
  ASSERT_EQ(job.state(), JobState::kCancelled);
  EXPECT_LT(partial.generations, kBudget);
  const std::optional<Snapshot> snap = job.snapshot();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state.generation, partial.generations);

  JobHandle resumed = service.resume(*snap, options);
  const core::EvolutionResult finished = resumed.wait();
  EXPECT_EQ(resumed.state(), JobState::kSuspended);
  EXPECT_EQ(finished.generations, direct.generations);
  EXPECT_EQ(finished.best_genome, direct.best_genome);
  EXPECT_EQ(finished.evaluations, direct.evaluations);
}

TEST(Service, CancelBeforeRunIsImmediate) {
  EvolutionService service(1);
  // Occupy the single worker so the second job stays queued.
  JobOptions options;
  options.use_cache = false;
  options.generation_budget = 300'000;
  JobHandle blocker = service.submit(stuck_config(), options);
  JobHandle queued = service.submit(base_config(50), options);

  queued.cancel();
  EXPECT_EQ(queued.state(), JobState::kCancelled);
  blocker.cancel();
  (void)blocker.wait();
  EXPECT_EQ(blocker.state(), JobState::kCancelled);
  (void)queued.wait();  // terminal: returns immediately
}

TEST(Service, CancelRunningJobStopsPromptlyWithSnapshot) {
  EvolutionService service(1);
  JobOptions options;
  options.use_cache = false;
  options.generation_budget = 2'000'000;
  JobHandle job = service.submit(stuck_config(), options);
  while (job.state() == JobState::kQueued) std::this_thread::yield();

  job.cancel();
  const core::EvolutionResult partial = job.wait();
  EXPECT_EQ(job.state(), JobState::kCancelled);
  EXPECT_LT(partial.generations, 2'000'000u);
  EXPECT_TRUE(job.snapshot().has_value());
}

TEST(Service, QueuedJobsRunInSubmissionOrder) {
  // While a blocker occupies the single worker, a submission, a resume and
  // another submission queue behind it. Each runs until cancelled, so the
  // job that leaves kQueued next must be the oldest one still waiting,
  // while the others stay queued behind it.
  const Snapshot snap =
      make_snapshot(core::EvolutionSession(endless_config(62)));
  EvolutionService service(1);
  JobHandle blocker = service.submit(endless_config());
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();

  std::vector<JobHandle> queued{service.submit(endless_config(60)),
                                service.resume(snap),
                                service.submit(endless_config(61))};
  EXPECT_EQ(service.queue_depth(), 3u);
  blocker.cancel();

  for (std::size_t next = 0; next < queued.size(); ++next) {
    const auto all_queued = [&] {
      for (std::size_t i = next; i < queued.size(); ++i) {
        if (queued[i].state() != JobState::kQueued) return false;
      }
      return true;
    };
    while (all_queued()) std::this_thread::yield();
    EXPECT_NE(queued[next].state(), JobState::kQueued) << "job " << next;
    for (std::size_t later = next + 1; later < queued.size(); ++later) {
      EXPECT_EQ(queued[later].state(), JobState::kQueued)
          << "job " << later << " started before job " << next;
    }
    queued[next].cancel();
    (void)queued[next].wait();
    EXPECT_EQ(queued[next].state(), JobState::kCancelled);
  }
}

TEST(Service, FailedJobThrowsOnWait) {
  EvolutionService service(1);
  core::EvolutionConfig bad = base_config(1);
  bad.ga.population_size = 7;  // GaEngine requires an even population
  JobHandle job = service.submit(bad);
  EXPECT_THROW((void)job.wait(), std::runtime_error);
  EXPECT_EQ(job.state(), JobState::kFailed);
  EXPECT_FALSE(job.error().empty());
}

TEST(Service, ResumeRejectsHardwareSnapshots) {
  Snapshot snap;
  snap.config.backend = core::Backend::kHardware;
  snap.config_key = config_key(snap.config);
  EvolutionService service(1);
  EXPECT_THROW((void)service.resume(snap), std::invalid_argument);
}

TEST(Service, DestructorCancelsOutstandingJobs) {
  JobHandle job;
  {
    EvolutionService service(1);
    JobOptions options;
    options.use_cache = false;
    options.generation_budget = 2'000'000;
    job = service.submit(stuck_config(), options);
  }
  EXPECT_TRUE(is_terminal(job.state()));
}

/// Sum of the six `leo_serve_jobs_<state>_total` counters.
std::uint64_t terminal_total() {
  std::uint64_t total = 0;
  for (const char* state : {"succeeded", "suspended", "budget_exhausted",
                            "cancelled", "rejected", "failed"}) {
    total += counter_value(
        ("leo_serve_jobs_" + std::string(state) + "_total").c_str());
  }
  return total;
}

/// A 1-worker service destroyed with one running job, a queue behind it
/// and a coalesced follower: shutdown must find every job through the
/// queue and the worker's running slot, the worker drains the queue, and
/// each job becomes terminal exactly once.
TEST(Service, DestructorCancelsRunningQueuedAndCoalescedJobs) {
  constexpr std::uint64_t kQueued = 8;
  // endless_config() runs for seconds unless cancelled, so a shutdown that
  // misses a job fails the state check below instead of hanging.
  JobHandle running;
  std::vector<JobHandle> handles;
  const std::uint64_t total = terminal_total();
  {
    EvolutionService service(1);
    running = service.submit(endless_config(999));
    while (running.state() == JobState::kQueued) std::this_thread::yield();
    for (std::uint64_t i = 0; i < kQueued; ++i) {
      handles.push_back(service.submit(endless_config(1000 + i)));
    }
    JobHandle follower = service.submit(endless_config(1000));
    EXPECT_TRUE(follower.coalesced());
    handles.push_back(follower);
    EXPECT_EQ(service.queue_depth(), kQueued);
  }
  handles.push_back(running);
  for (const JobHandle& handle : handles) {
    EXPECT_EQ(handle.state(), JobState::kCancelled) << "job " << handle.id();
  }
  EXPECT_EQ(terminal_total() - total, handles.size());
}

TEST(Service, WorkerSurvivesAFailedJob) {
  EvolutionService service(1);
  core::EvolutionConfig bad = base_config(1);
  bad.ga.population_size = 7;  // GaEngine requires an even population
  JobHandle failed = service.submit(bad);
  EXPECT_THROW((void)failed.wait(), std::runtime_error);
  EXPECT_EQ(failed.state(), JobState::kFailed);

  JobHandle next = service.submit(base_config(7));
  (void)next.wait();
  EXPECT_EQ(next.state(), JobState::kSucceeded);
}

TEST(Service, ThreadsDefaultsToAtLeastOneWorker) {
  EvolutionService service(0);
  EXPECT_GE(service.threads(), 1u);
}

TEST(Service, ThreadsReflectsWorkerCount) {
  EvolutionService service(3);
  EXPECT_EQ(service.threads(), 3u);
}

/// Every terminal transition goes through detail::Job::terminate(), which
/// its three callers — the scheduler, a handle cancelling a queued job,
/// and a primary completing its coalesced followers — reach once per job:
/// each bumps the state's counter exactly once.
TEST(Service, TerminalCountersCountEachTransitionOnce) {
  constexpr const char* kSucceeded = "leo_serve_jobs_succeeded_total";
  constexpr const char* kCancelled = "leo_serve_jobs_cancelled_total";
  EvolutionService service(1);

  std::uint64_t succeeded = counter_value(kSucceeded);
  std::uint64_t total = terminal_total();
  (void)service.submit(base_config(3)).wait();
  EXPECT_EQ(counter_value(kSucceeded) - succeeded, 1u) << "scheduler finish";
  EXPECT_EQ(terminal_total() - total, 1u) << "scheduler finish";

  // A blocker on the one worker keeps the next submissions queued.
  JobHandle blocker = service.submit(endless_config());
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();
  JobHandle queued = service.submit(base_config(50));
  const std::uint64_t cancelled = counter_value(kCancelled);
  total = terminal_total();
  queued.cancel();
  EXPECT_EQ(counter_value(kCancelled) - cancelled, 1u) << "handle cancel";
  EXPECT_EQ(terminal_total() - total, 1u) << "handle cancel";

  JobHandle primary = service.submit(base_config(7));
  JobHandle follower = service.submit(base_config(7));
  ASSERT_TRUE(follower.coalesced());
  succeeded = counter_value(kSucceeded);
  total = terminal_total();
  blocker.cancel();
  (void)primary.wait();
  (void)follower.wait();
  EXPECT_EQ(primary.state(), JobState::kSucceeded);
  EXPECT_EQ(follower.state(), JobState::kSucceeded);
  // The primary and its follower once each, plus the cancelled blocker;
  // the worker popping the already-cancelled `queued` job adds nothing.
  EXPECT_EQ(counter_value(kSucceeded) - succeeded, 2u) << "follower";
  EXPECT_EQ(terminal_total() - total, 3u) << "follower";
}

// ---- a waiter runs the job at the queue's head -------------------------

/// Holds a 1-worker service's only worker with an endless job, so the
/// next submission sits at the queue's head until its waiter runs it.
JobHandle occupy_the_worker(EvolutionService& service) {
  JobHandle blocker = service.submit(endless_config());
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();
  return blocker;
}

TEST(Service, WaitRunsTheHeadSoftwareJobOnTheCallingThread) {
  const core::EvolutionConfig config = base_config(7);
  const core::EvolutionResult direct = core::evolve(config);
  EvolutionService service(1);
  JobHandle blocker = occupy_the_worker(service);

  JobHandle job = service.submit(config);
  const core::EvolutionResult served = job.wait();
  EXPECT_EQ(job.state(), JobState::kSucceeded);
  // The only worker is still busy, so the waiter ran the job.
  EXPECT_EQ(blocker.state(), JobState::kRunning);
  EXPECT_EQ(served.best_genome, direct.best_genome);
  EXPECT_EQ(served.generations, direct.generations);
  EXPECT_EQ(served.evaluations, direct.evaluations);
  ASSERT_TRUE(job.snapshot().has_value());
  EXPECT_EQ(job.snapshot()->state.generation, direct.generations);
  blocker.cancel();
  (void)blocker.wait();
}

TEST(Service, WaitRunsTheHeadHardwareJobOnTheCallingThread) {
  core::EvolutionConfig config = base_config(7);
  config.backend = core::Backend::kHardware;
  const core::EvolutionResult direct = core::evolve(config);
  EvolutionService service(1);
  JobHandle blocker = occupy_the_worker(service);

  JobHandle job = service.submit(config);
  const core::EvolutionResult served = job.wait();
  EXPECT_EQ(job.state(), JobState::kSucceeded);
  EXPECT_EQ(blocker.state(), JobState::kRunning);
  EXPECT_EQ(served.best_genome, direct.best_genome);
  EXPECT_EQ(served.generations, direct.generations);
  EXPECT_EQ(served.evaluations, direct.evaluations);
  EXPECT_EQ(served.clock_cycles, direct.clock_cycles);
  EXPECT_EQ(served.rtl_evaluations, direct.rtl_evaluations);
  EXPECT_FALSE(job.snapshot().has_value());
  blocker.cancel();
  (void)blocker.wait();
}

/// A waiter on a job behind the head does not run it: the job leaves
/// kQueued only after the one ahead of it has, as if nobody waited.
TEST(Service, WaitBehindTheHeadKeepsTheQueueOrder) {
  EvolutionService service(1);
  JobHandle blocker = occupy_the_worker(service);
  JobHandle head = service.submit(endless_config(70));
  JobHandle behind = service.submit(base_config(71));

  std::optional<core::EvolutionResult> waited;
  std::thread waiter([&] { waited = behind.wait(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(head.state(), JobState::kQueued);
  EXPECT_EQ(behind.state(), JobState::kQueued);

  blocker.cancel();
  while (head.state() == JobState::kQueued) std::this_thread::yield();
  EXPECT_EQ(behind.state(), JobState::kQueued)
      << "the waited-on job started before the job ahead of it";
  head.cancel();
  waiter.join();
  EXPECT_EQ(head.state(), JobState::kCancelled);
  EXPECT_EQ(behind.state(), JobState::kSucceeded);
  ASSERT_TRUE(waited.has_value());
  EXPECT_EQ(waited->best_genome, core::evolve(base_config(71)).best_genome);
}

TEST(Service, CancelStopsAnInlineRunWithItsSnapshot) {
  EvolutionService service(1);
  JobHandle blocker = occupy_the_worker(service);
  JobHandle job = service.submit(endless_config(72));

  std::optional<core::EvolutionResult> partial;
  std::thread waiter([&] { partial = job.wait(); });
  while (job.state() == JobState::kQueued) std::this_thread::yield();
  job.cancel();
  waiter.join();
  EXPECT_EQ(job.state(), JobState::kCancelled);
  EXPECT_EQ(blocker.state(), JobState::kRunning);
  ASSERT_TRUE(partial.has_value());
  EXPECT_LT(partial->generations, endless_config().max_generations);
  ASSERT_TRUE(job.snapshot().has_value());
  EXPECT_EQ(job.snapshot()->state.generation, partial->generations);
  blocker.cancel();
  (void)blocker.wait();
}

/// Destroying the service while a caller runs a job inside wait():
/// shutdown cancels the inline run like a worker's, waits for the caller
/// to leave, and each job turns terminal exactly once.
TEST(Service, DestructorCancelsAnInlineRunAndOutlivesItsWaiter) {
  const std::uint64_t total = terminal_total();
  JobHandle blocker;
  JobHandle job;
  std::optional<core::EvolutionResult> partial;
  std::thread waiter;
  {
    EvolutionService service(1);
    blocker = occupy_the_worker(service);
    job = service.submit(endless_config(73));
    waiter = std::thread([&] { partial = job.wait(); });
    while (job.state() == JobState::kQueued) std::this_thread::yield();
  }
  waiter.join();
  EXPECT_EQ(job.state(), JobState::kCancelled);
  EXPECT_EQ(blocker.state(), JobState::kCancelled);
  EXPECT_TRUE(partial.has_value());
  EXPECT_EQ(terminal_total() - total, 2u);
}

/// Destroying the service while another thread is about to wait on a
/// queued job: the waiter finds the job queued (and runs it until
/// shutdown cancels it), or finds it already terminal; the service is
/// never touched after it is gone. Repeated to vary the interleaving.
TEST(Service, DestructorRacesAWaiterOnAQueuedJob) {
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t total = terminal_total();
    JobHandle job;
    std::atomic<bool> go{false};
    std::thread waiter;
    {
      EvolutionService service(1);
      (void)occupy_the_worker(service);
      job = service.submit(endless_config(74));
      waiter = std::thread([&] {
        while (!go.load()) std::this_thread::yield();
        (void)job.wait();
      });
      go.store(true);
      if (round % 2 == 1) std::this_thread::yield();
    }
    waiter.join();
    EXPECT_EQ(job.state(), JobState::kCancelled) << "round " << round;
    EXPECT_EQ(terminal_total() - total, 2u) << "round " << round;
  }
}

// ---- progress snapshots ------------------------------------------------

TEST(Progress, PackUnpackRoundTrip) {
  const JobProgress p = detail::unpack_progress(detail::pack_progress(12, 60));
  EXPECT_EQ(p.generation, 12u);
  EXPECT_EQ(p.best_fitness, 60u);

  // 48-bit generation and 16-bit fitness limits hold exactly.
  const std::uint64_t max_gen = (std::uint64_t{1} << 48) - 1;
  const JobProgress big =
      detail::unpack_progress(detail::pack_progress(max_gen, 0xFFFFu));
  EXPECT_EQ(big.generation, max_gen);
  EXPECT_EQ(big.best_fitness, 0xFFFFu);

  // Fitness beyond 16 bits is masked, never smeared into the generation.
  const JobProgress masked =
      detail::unpack_progress(detail::pack_progress(3, 0x12'0007u));
  EXPECT_EQ(masked.generation, 3u);
  EXPECT_EQ(masked.best_fitness, 7u);
}

/// Progress is one packed atomic word, so a poller racing the runner must
/// never observe a torn pair: generation and best-ever fitness are both
/// monotone non-decreasing per the on_progress contract, and any snapshot
/// mixing an old fitness with a new generation (or vice versa) would break
/// that monotonicity. Hammer progress() from two threads while the job
/// runs and assert both fields only ever move forward.
TEST(Progress, ConcurrentPollSeesConsistentMonotoneSnapshots) {
  // The run must outlast the pollers' wake-up on a loaded machine: 40k
  // generations take ~40 ms of one core at ~1 us per generation.
  constexpr std::uint64_t kBudget = 40'000;
  EvolutionService service(1);
  JobOptions options;
  options.use_cache = false;
  options.generation_budget = kBudget;

  // The pollers are running before the job is submitted, so each one
  // samples the live job rather than racing its own start-up.
  std::optional<JobHandle> job;
  std::atomic<int> ready{0};
  std::atomic<bool> submitted{false};
  std::atomic<bool> done{false};
  auto poll = [&job, &ready, &submitted, &done] {
    ready.fetch_add(1);
    while (!submitted.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    JobProgress last;
    std::uint64_t samples = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const JobProgress p = job->progress();
      EXPECT_GE(p.generation, last.generation);
      EXPECT_GE(p.best_fitness, last.best_fitness);
      last = p;
      ++samples;
    }
    EXPECT_GT(samples, 0u);
    return last;
  };
  std::thread poller_a(poll);
  std::thread poller_b(poll);
  while (ready.load() < 2) std::this_thread::yield();
  job.emplace(service.submit(stuck_config(), options));
  submitted.store(true, std::memory_order_release);
  (void)job->wait();
  done.store(true, std::memory_order_relaxed);
  poller_a.join();
  poller_b.join();

  // The terminal store publishes the final generation count.
  EXPECT_EQ(job->progress().generation, kBudget);
}

// ---- trials over the service -------------------------------------------

TEST(Trials, MatchesPerSeedEvolveAndIsThreadCountInvariant) {
  const core::EvolutionConfig config = base_config(0);
  const TrialSummary a = run_trials(config, 6, 900, 1);
  const TrialSummary b = run_trials(config, 6, 900, 4);
  ASSERT_EQ(a.runs.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    core::EvolutionConfig trial = config;
    trial.seed = 900 + i;
    const core::EvolutionResult direct = core::evolve(trial);
    EXPECT_EQ(a.runs[i].best_genome, direct.best_genome);
    EXPECT_EQ(a.runs[i].generations, direct.generations);
    EXPECT_EQ(b.runs[i].best_genome, direct.best_genome);
    EXPECT_EQ(b.runs[i].generations, direct.generations);
  }
}

TEST(Trials, SharedServiceCachesRepeatedSweepPoints) {
  const core::EvolutionConfig config = base_config(0);
  EvolutionService service(2);
  const TrialSummary a = run_trials_on(service, config, 4, 100);
  const TrialSummary b = run_trials_on(service, config, 4, 100);
  EXPECT_EQ(service.cache_stats().hits, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.runs[i].best_genome, b.runs[i].best_genome);
  }
}

// ---- honest budget terminal state (hardware) ---------------------------

/// A hardware job stopped by its generation budget cannot snapshot (the
/// RTL state is not serializable), so it must not masquerade as the
/// resumable kSuspended: it ends kBudgetExhausted with no snapshot.
TEST(Service, HardwareBudgetStopIsTerminalWithoutSnapshot) {
  core::EvolutionConfig config = base_config(7);
  config.backend = core::Backend::kHardware;

  EvolutionService service(1);
  JobOptions options;
  options.generation_budget = 2;
  options.use_cache = false;
  JobHandle job = service.submit(config, options);

  const core::EvolutionResult partial = job.wait();
  EXPECT_EQ(job.state(), JobState::kBudgetExhausted);
  EXPECT_EQ(partial.generations, 2u);
  EXPECT_FALSE(partial.reached_target);
  EXPECT_FALSE(job.snapshot().has_value());
  // The partial result never pollutes the deterministic cache.
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

// A budget equal to config.max_generations stops the run where the config
// does, so the job is complete: kSucceeded, cached like any finished run.
TEST(Service, HardwareBudgetAtMaxGenerationsSucceedsAndIsCached) {
  core::EvolutionConfig config = base_config(7);
  config.backend = core::Backend::kHardware;
  config.max_generations = 10;

  EvolutionService service(1);
  JobOptions options;
  options.generation_budget = 10;
  JobHandle first = service.submit(config, options);

  const core::EvolutionResult result = first.wait();
  EXPECT_EQ(first.state(), JobState::kSucceeded);
  EXPECT_EQ(result.generations, 10u);
  EXPECT_FALSE(result.reached_target);  // seed 7 converges at 44
  EXPECT_FALSE(first.snapshot().has_value());

  JobHandle second = service.submit(config, options);
  EXPECT_EQ(second.wait().generations, 10u);
  EXPECT_TRUE(second.from_cache());
  EXPECT_EQ(second.state(), JobState::kSucceeded);
  EXPECT_EQ(service.cache_stats().hits, 1u);
}

// ---- in-flight coalescing ----------------------------------------------

/// The acceptance criterion (and the check-then-act regression): a batch
/// of identical submissions races the cache — every job misses it before
/// the first execution completes — yet the engine must run exactly once.
/// Coalescing closes the race: the first submission becomes the primary,
/// every later one either attaches to it in flight or (if the primary
/// already finished) hits the cache. Verified via the obs counters and the
/// service's CacheStats.
TEST(Coalescing, BatchOf64IdenticalConfigsRunsEngineOnce) {
  const core::EvolutionConfig config = base_config(77);
  const core::EvolutionResult direct = core::evolve(config);

  const std::uint64_t submitted0 =
      counter_value("leo_serve_jobs_submitted_total");
  const std::uint64_t coalesced0 =
      counter_value("leo_serve_jobs_coalesced_total");
  const std::uint64_t succeeded0 =
      counter_value("leo_serve_jobs_succeeded_total");

  EvolutionService service(2);
  std::vector<BatchItem> items(64);
  for (auto& item : items) item.config = config;
  BatchHandle batch = service.submit_batch(items);
  const std::vector<core::EvolutionResult> results = batch.results();

  ASSERT_EQ(results.size(), 64u);
  for (const auto& r : results) {
    EXPECT_EQ(r.best_genome, direct.best_genome);
    EXPECT_EQ(r.generations, direct.generations);
    EXPECT_EQ(r.evaluations, direct.evaluations);
  }

  EXPECT_EQ(counter_value("leo_serve_jobs_submitted_total") - submitted0, 64u);
  EXPECT_EQ(counter_value("leo_serve_jobs_succeeded_total") - succeeded0, 64u);
  const std::uint64_t coalesced =
      counter_value("leo_serve_jobs_coalesced_total") - coalesced0;
  const std::uint64_t hits = service.cache_stats().hits;
  EXPECT_EQ(coalesced + hits, 63u) << "coalesced=" << coalesced
                                   << " cache hits=" << hits;
  EXPECT_EQ(service.cache_stats().entries, 1u) << "exactly one execution";

  const BatchProgress p = batch.progress();
  EXPECT_EQ(p.total, 64u);
  EXPECT_EQ(p.terminal, 64u);
  EXPECT_EQ(p.succeeded, 64u);
  EXPECT_EQ(p.coalesced + p.from_cache, 63u);
}

TEST(Coalescing, FollowerInheritsSuspendedOutcomeAndSnapshot) {
  EvolutionService service(1);
  // Hold the single worker so the primary is still queued when the
  // follower arrives: a 10k-generation primary could otherwise finish
  // before the second submit.
  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 100'000'000;
  JobHandle blocker = service.submit(stuck_config(), blocker_opts);
  JobOptions options;
  options.generation_budget = 10'000;
  JobHandle primary = service.submit(stuck_config(), options);
  JobHandle follower = service.submit(stuck_config(), options);
  blocker.cancel();
  (void)blocker.wait();
  ASSERT_TRUE(follower.coalesced());
  EXPECT_FALSE(primary.coalesced());

  const core::EvolutionResult a = primary.wait();
  const core::EvolutionResult b = follower.wait();
  EXPECT_EQ(primary.state(), JobState::kSuspended);
  EXPECT_EQ(follower.state(), JobState::kSuspended);
  EXPECT_EQ(b.generations, a.generations);
  EXPECT_EQ(b.best_genome, a.best_genome);
  EXPECT_EQ(follower.progress().generation, 10'000u);
  ASSERT_TRUE(primary.snapshot().has_value());
  ASSERT_TRUE(follower.snapshot().has_value());
  EXPECT_EQ(serialize_snapshot(*follower.snapshot()),
            serialize_snapshot(*primary.snapshot()));
  // Budget-suspended partial results never enter the cache.
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

/// The primary runs inside its waiter's wait() and completes its
/// follower with its outcome, as a worker's run would.
TEST(Coalescing, FollowerOfAnInlineRunPrimaryInheritsItsOutcome) {
  EvolutionService service(1);
  JobHandle blocker = occupy_the_worker(service);
  JobOptions options;
  options.generation_budget = 5;
  JobHandle primary = service.submit(base_config(7), options);
  JobHandle follower = service.submit(base_config(7), options);
  ASSERT_TRUE(follower.coalesced());

  const core::EvolutionResult a = primary.wait();
  EXPECT_EQ(primary.state(), JobState::kSuspended);
  EXPECT_EQ(blocker.state(), JobState::kRunning);
  EXPECT_EQ(follower.state(), JobState::kSuspended);
  const core::EvolutionResult b = follower.wait();
  EXPECT_EQ(b.generations, a.generations);
  EXPECT_EQ(b.best_genome, a.best_genome);
  ASSERT_TRUE(follower.snapshot().has_value());
  EXPECT_EQ(serialize_snapshot(*follower.snapshot()),
            serialize_snapshot(*primary.snapshot()));
  blocker.cancel();
  (void)blocker.wait();
}

TEST(Coalescing, RequiresMatchingBudgetAndCacheOptIn) {
  EvolutionService service(1);
  JobOptions run_opts;
  run_opts.generation_budget = 400'000;
  JobHandle primary = service.submit(stuck_config(), run_opts);

  // A different budget is a different execution: no coalescing.
  JobOptions other_budget = run_opts;
  other_budget.generation_budget = 100;
  JobHandle different = service.submit(stuck_config(), other_budget);
  EXPECT_FALSE(different.coalesced());

  // use_cache=false opts out of result sharing entirely.
  JobOptions no_cache = run_opts;
  no_cache.use_cache = false;
  JobHandle fresh = service.submit(stuck_config(), no_cache);
  EXPECT_FALSE(fresh.coalesced());

  primary.cancel();
  different.cancel();
  fresh.cancel();
  (void)primary.wait();
  (void)different.wait();
  (void)fresh.wait();
}

TEST(Coalescing, FollowerCancelDoesNotDisturbThePrimary) {
  EvolutionService service(1);
  JobOptions options;
  options.generation_budget = 20'000;
  JobHandle primary = service.submit(stuck_config(), options);
  JobHandle follower = service.submit(stuck_config(), options);
  ASSERT_TRUE(follower.coalesced());

  follower.cancel();
  (void)follower.wait();
  EXPECT_EQ(follower.state(), JobState::kCancelled);

  const core::EvolutionResult full = primary.wait();
  EXPECT_EQ(primary.state(), JobState::kSuspended);
  EXPECT_EQ(full.generations, 20'000u);
}

TEST(Coalescing, CancellingAQueuedPrimaryTakesItsFollowers) {
  EvolutionService service(1);
  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 100'000'000;
  JobHandle blocker = service.submit(stuck_config(), blocker_opts);
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();

  // Primary stays queued behind the blocker; the follower coalesces on it.
  JobHandle primary = service.submit(base_config(90));
  JobHandle follower = service.submit(base_config(90));
  ASSERT_TRUE(follower.coalesced());

  primary.cancel();
  EXPECT_EQ(primary.state(), JobState::kCancelled);
  (void)follower.wait();
  EXPECT_EQ(follower.state(), JobState::kCancelled);

  blocker.cancel();
  (void)blocker.wait();
}

// ---- batch handles ------------------------------------------------------

TEST(Batch, WaitAnyReturnsEachJobExactlyOnce) {
  EvolutionService service(2);
  std::vector<BatchItem> items(4);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].config = base_config(300 + i);
  }
  BatchHandle batch = service.submit_batch(items);
  ASSERT_TRUE(batch.valid());
  ASSERT_EQ(batch.size(), 4u);

  std::set<std::size_t> indices;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::size_t idx = batch.wait_any();
    ASSERT_NE(idx, BatchHandle::npos);
    ASSERT_LT(idx, items.size());
    EXPECT_TRUE(is_terminal(batch.jobs()[idx].state()));
    EXPECT_TRUE(indices.insert(idx).second) << "index " << idx << " twice";
  }
  EXPECT_EQ(indices.size(), 4u);
  EXPECT_EQ(batch.wait_any(), BatchHandle::npos);
}

TEST(Batch, AggregateProgressCountsMixedOutcomes) {
  EvolutionService service(2);
  core::EvolutionConfig bad = base_config(1);
  bad.ga.population_size = 7;  // GaEngine requires an even population
  std::vector<BatchItem> items(3);
  items[0].config = base_config(310);
  items[1].config = base_config(311);
  items[2].config = bad;
  BatchHandle batch = service.submit_batch(items);
  batch.wait_all();

  const BatchProgress p = batch.progress();
  EXPECT_EQ(p.total, 3u);
  EXPECT_EQ(p.terminal, 3u);
  EXPECT_EQ(p.succeeded, 2u);
  EXPECT_EQ(p.failed, 1u);
  EXPECT_GT(p.generations, 0u);

  // results() throws like JobHandle::wait(); per-job handles still
  // deliver the successes.
  EXPECT_THROW((void)batch.results(), std::runtime_error);
  JobHandle first = batch.jobs()[0];  // handles are shared-ownership views
  EXPECT_TRUE(first.wait().reached_target);
  EXPECT_EQ(batch.jobs()[2].state(), JobState::kFailed);
}

TEST(Batch, CancelMidFlightTerminalizesEveryJob) {
  EvolutionService service(2);
  JobOptions options;
  options.use_cache = false;  // six independent executions, no coalescing
  options.generation_budget = 5'000'000;
  std::vector<BatchItem> items(6);
  for (auto& item : items) {
    item.config = stuck_config();
    item.options = options;
  }
  BatchHandle batch = service.submit_batch(items);

  // Let at least one member actually reach the engine loop.
  while (batch.progress().generations == 0) std::this_thread::yield();
  batch.cancel();
  batch.wait_all();

  const BatchProgress p = batch.progress();
  EXPECT_EQ(p.total, 6u);
  EXPECT_EQ(p.terminal, 6u);
  EXPECT_EQ(p.cancelled, 6u);
  for (const JobHandle& job : batch.jobs()) {
    EXPECT_EQ(job.state(), JobState::kCancelled);
  }
}

// ---- admission control --------------------------------------------------

TEST(Admission, BlockPolicyBoundsTheQueueUnderTenXBurst) {
  ServiceOptions opts;
  opts.threads = 2;
  opts.max_queue_depth = 4;
  opts.admission = AdmissionPolicy::kBlock;
  EvolutionService service(opts);

  // Occupy both workers so the burst can only drain through admission.
  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 100'000'000;
  JobHandle blocker_a = service.submit(stuck_config(), blocker_opts);
  JobHandle blocker_b = service.submit(stuck_config(), blocker_opts);
  while (blocker_a.state() == JobState::kQueued ||
         blocker_b.state() == JobState::kQueued) {
    std::this_thread::yield();
  }

  // 10x the admission cap, from four submitter threads. Every submit
  // either enqueues under the bound or blocks until a worker frees a slot.
  const std::uint64_t blocked0 =
      counter_value("leo_serve_admission_blocked_total");
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerThread = 10;
  std::mutex handles_mutex;
  std::vector<JobHandle> handles;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&service, &handles_mutex, &handles] {
      JobOptions options;
      options.use_cache = false;
      options.generation_budget = 40;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        JobHandle handle = service.submit(stuck_config(), options);
        const std::scoped_lock lock(handles_mutex);
        handles.push_back(std::move(handle));
      }
    });
  }

  // The queue fills to the cap and the next submit blocks. Unblock the
  // workers and watch the bound hold while the burst drains.
  while (service.queue_depth() < opts.max_queue_depth) {
    std::this_thread::yield();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool blocked = false;
  while (!(blocked = counter_value("leo_serve_admission_blocked_total") >
                     blocked0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(blocked) << "no submit blocked on the full queue within 10 s";
  blocker_a.cancel();
  blocker_b.cancel();
  std::size_t max_seen = 0;
  while (true) {
    max_seen = std::max(max_seen, service.queue_depth());
    {
      const std::scoped_lock lock(handles_mutex);
      if (handles.size() == kSubmitters * kPerThread) break;
    }
    std::this_thread::yield();
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_LE(max_seen, opts.max_queue_depth);

  ASSERT_EQ(handles.size(), kSubmitters * kPerThread);
  for (JobHandle& handle : handles) {
    (void)handle.wait();
    EXPECT_EQ(handle.state(), JobState::kSuspended);  // hit its 40-gen budget
  }
  (void)blocker_a.wait();
  (void)blocker_b.wait();
  EXPECT_EQ(service.queue_depth(), 0u);
}

/// Under kShed a full queue refuses the newcomer: it comes back already
/// kRejected with an error, whether submitted alone or in a batch, so
/// submit_batch() returns a handle over refused members instead of failing
/// part-way through.
TEST(Admission, ShedPolicyRefusesTheNewcomerAtCapacity) {
  ServiceOptions opts;
  opts.threads = 1;
  opts.max_queue_depth = 2;
  opts.admission = AdmissionPolicy::kShed;
  EvolutionService service(opts);

  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 100'000'000;
  JobHandle blocker = service.submit(endless_config(), blocker_opts);
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();

  JobOptions queued_opts;
  queued_opts.use_cache = false;
  queued_opts.generation_budget = 50;
  JobHandle q1 = service.submit(stuck_config(), queued_opts);
  JobHandle q2 = service.submit(stuck_config(), queued_opts);
  EXPECT_EQ(service.queue_depth(), 2u);

  JobHandle shed = service.submit(stuck_config(), queued_opts);
  EXPECT_EQ(shed.state(), JobState::kRejected);
  EXPECT_THROW((void)shed.wait(), std::runtime_error);
  EXPECT_FALSE(shed.error().empty());

  std::vector<BatchItem> items(3);
  for (auto& item : items) {
    item.config = stuck_config();
    item.options = queued_opts;
  }
  BatchHandle batch = service.submit_batch(items);
  EXPECT_EQ(batch.progress().rejected, 3u);
  for (const JobHandle& job : batch.jobs()) {
    EXPECT_EQ(job.state(), JobState::kRejected);
  }
  EXPECT_EQ(service.queue_depth(), 2u);

  blocker.cancel();
  (void)blocker.wait();
  (void)q1.wait();
  (void)q2.wait();
  EXPECT_EQ(service.queue_depth(), 0u);
}

/// A 10x-cap burst under kShed is refused job by job: the queue never
/// exceeds its bound, every refusal counts in leo_serve_jobs_rejected_total,
/// and the queued jobs keep their places and run to their budgets.
TEST(Admission, ShedPolicyKeepsQueuedJobsAndBoundsTheQueue) {
  ServiceOptions opts;
  opts.threads = 1;
  opts.max_queue_depth = 2;
  opts.admission = AdmissionPolicy::kShed;
  EvolutionService service(opts);

  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 100'000'000;
  JobHandle blocker = service.submit(endless_config(), blocker_opts);
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();

  JobOptions queued_opts;
  queued_opts.use_cache = false;
  queued_opts.generation_budget = 50;
  JobHandle q1 = service.submit(stuck_config(), queued_opts);
  JobHandle q2 = service.submit(stuck_config(), queued_opts);
  EXPECT_EQ(service.queue_depth(), 2u);

  const std::uint64_t rejected0 =
      counter_value("leo_serve_jobs_rejected_total");
  for (int i = 0; i < 20; ++i) {
    JobHandle shed = service.submit(stuck_config(), queued_opts);
    EXPECT_EQ(shed.state(), JobState::kRejected);
    EXPECT_THROW((void)shed.wait(), std::runtime_error);
    EXPECT_FALSE(shed.error().empty());
    EXPECT_LE(service.queue_depth(), 2u);
  }
  EXPECT_EQ(counter_value("leo_serve_jobs_rejected_total") - rejected0, 20u);
  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_EQ(q1.state(), JobState::kQueued);
  EXPECT_EQ(q2.state(), JobState::kQueued);

  blocker.cancel();
  (void)blocker.wait();
  (void)q1.wait();
  (void)q2.wait();
  EXPECT_EQ(q1.state(), JobState::kSuspended);
  EXPECT_EQ(q2.state(), JobState::kSuspended);
  EXPECT_EQ(service.queue_depth(), 0u);
}

/// A resume() goes through the same admission path as submit(): at a full
/// queue under kShed it is refused like any newcomer.
TEST(Admission, ResumeAtFullQueueFollowsRejectPolicy) {
  const Snapshot snap = make_snapshot(core::EvolutionSession(stuck_config()));
  ServiceOptions opts;
  opts.threads = 1;
  opts.max_queue_depth = 2;
  opts.admission = AdmissionPolicy::kShed;
  EvolutionService service(opts);

  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 100'000'000;
  JobHandle blocker = service.submit(endless_config(), blocker_opts);
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();

  JobOptions queued_opts;
  queued_opts.use_cache = false;
  queued_opts.generation_budget = 50;
  JobHandle q1 = service.resume(snap, queued_opts);
  JobHandle q2 = service.submit(stuck_config(), queued_opts);
  EXPECT_EQ(service.queue_depth(), 2u);

  const std::uint64_t rejected0 =
      counter_value("leo_serve_jobs_rejected_total");
  JobHandle refused = service.resume(snap, queued_opts);
  EXPECT_EQ(refused.state(), JobState::kRejected);
  EXPECT_THROW((void)refused.wait(), std::runtime_error);
  EXPECT_EQ(counter_value("leo_serve_jobs_rejected_total") - rejected0, 1u);
  EXPECT_EQ(service.queue_depth(), 2u);

  blocker.cancel();
  (void)blocker.wait();
  (void)q1.wait();
  (void)q2.wait();
  EXPECT_EQ(q1.state(), JobState::kSuspended);
  EXPECT_EQ(service.queue_depth(), 0u);
}

/// Queued jobs cancelled through their handles give their slots back at
/// once: they leave queue_depth(), and a kBlock submit at the cap is
/// admitted without waiting for a worker to pop them.
TEST(Admission, CancelledQueuedJobsReleaseTheirSlots) {
  ServiceOptions opts;
  opts.threads = 1;
  opts.max_queue_depth = 2;
  EvolutionService service(opts);

  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 100'000'000;
  JobHandle blocker = service.submit(endless_config(), blocker_opts);
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();

  JobOptions queued_opts;
  queued_opts.use_cache = false;
  queued_opts.generation_budget = 50;
  JobHandle q1 = service.submit(stuck_config(), queued_opts);
  JobHandle q2 = service.submit(stuck_config(), queued_opts);
  EXPECT_EQ(service.queue_depth(), 2u);
  q1.cancel();
  q2.cancel();
  EXPECT_EQ(service.queue_depth(), 0u);

  // The submit runs on its own thread so that, if it blocks, the test
  // fails at the deadline instead of hanging: cancelling the blocker then
  // lets the worker drain the queue and release it.
  const std::uint64_t blocked0 =
      counter_value("leo_serve_admission_blocked_total");
  std::atomic<bool> admitted{false};
  JobHandle next;
  std::thread submitter([&] {
    next = service.submit(stuck_config(), queued_opts);
    admitted.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!admitted.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(admitted.load()) << "submit still blocked after 5 s";
  EXPECT_EQ(counter_value("leo_serve_admission_blocked_total"), blocked0);

  blocker.cancel();
  submitter.join();
  (void)blocker.wait();
  (void)next.wait();
  EXPECT_EQ(next.state(), JobState::kSuspended);
  EXPECT_EQ(q1.state(), JobState::kCancelled);
  EXPECT_EQ(q2.state(), JobState::kCancelled);
  EXPECT_EQ(service.queue_depth(), 0u);
}

// ---- LRU result cache --------------------------------------------------

core::EvolutionResult fake_result(std::uint64_t tag) {
  core::EvolutionResult result;
  result.best_genome = tag;
  result.generations = tag;
  return result;
}

TEST(CacheLRU, EvictsLeastRecentlyUsedFirst) {
  ResultCache cache(2);
  EXPECT_EQ(cache.stats().capacity, 2u);

  cache.insert(1, fake_result(1));
  cache.insert(2, fake_result(2));
  ASSERT_TRUE(cache.lookup(1).has_value());  // refresh: 1 is now most recent
  cache.insert(3, fake_result(3));           // evicts 2, the LRU entry
  EXPECT_FALSE(cache.lookup(2).has_value());
  ASSERT_TRUE(cache.lookup(1).has_value());
  ASSERT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.lookup(3)->best_genome, 3u);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(CacheLRU, OverwriteRefreshesInsteadOfEvicting) {
  ResultCache cache(2);
  cache.insert(1, fake_result(1));
  cache.insert(2, fake_result(2));
  cache.insert(1, fake_result(1));  // overwrite: refresh, no eviction
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(3, fake_result(3));  // 2 is now least recently used
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
}

/// `capacity` bounds the whole cache exactly. The keys share their low
/// bits, so a cache split by key hash would put them all in one partition
/// and evict long before the total reaches the cap.
TEST(CacheLRU, CapacityIsAGlobalExactBound) {
  ResultCache cache(8);
  const auto key = [](std::uint64_t i) { return i * 8; };
  for (std::uint64_t i = 0; i < 8; ++i) cache.insert(key(i), fake_result(i));
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(cache.lookup(key(i)).has_value()) << "key " << key(i);
  }

  cache.insert(key(8), fake_result(8));  // evicts key(0), looked up first
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(cache.lookup(key(0)).has_value());
  EXPECT_TRUE(cache.lookup(key(8)).has_value());
}

TEST(CacheLRU, StatsStayConsistentUnderSweep) {
  ResultCache cache(64);
  // Spread keys like real config hashes.
  const auto key = [](std::uint64_t i) { return i * 0x9E3779B97F4A7C15ull; };

  constexpr std::uint64_t kKeys = 200;
  for (std::uint64_t i = 0; i < kKeys; ++i) cache.insert(key(i), fake_result(i));

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 64u);
  EXPECT_EQ(stats.entries + stats.evictions, kKeys)
      << "every insert either grew the cache or evicted exactly one entry";

  std::uint64_t present = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    if (cache.lookup(key(i)).has_value()) ++present;
  }
  stats = cache.stats();
  EXPECT_EQ(present, stats.entries);
  EXPECT_EQ(stats.hits, present);
  EXPECT_EQ(stats.misses, kKeys - present);
}

TEST(CacheLRU, LookupRacesInsertWithoutCorruption) {
  ResultCache cache(128);
  std::atomic<bool> stop{false};
  constexpr std::uint64_t kInserts = 30'000;

  std::thread writer([&cache, &stop] {
    for (std::uint64_t i = 0; i < kInserts; ++i) {
      cache.insert(i & 0x3FF, fake_result(i & 0x3FF));
    }
    stop.store(true, std::memory_order_relaxed);
  });
  std::uint64_t lookups = 0;
  std::thread reader([&cache, &stop, &lookups] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (const auto hit = cache.lookup(lookups & 0x3FF)) {
        // Entries are copied out whole: the tag fields always agree.
        EXPECT_EQ(hit->best_genome, hit->generations);
      }
      ++lookups;
    }
  });
  writer.join();
  reader.join();

  // 1024 distinct keys went in, so the cache ends full; every lookup
  // counted exactly once.
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, stats.capacity);
  EXPECT_EQ(stats.capacity, 128u);
  EXPECT_EQ(stats.hits + stats.misses, lookups);
}

}  // namespace
}  // namespace leo::serve
