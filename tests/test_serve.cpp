// Tests for the evolution service: config keys, checkpoint round trips,
// the deterministic result cache (sharded LRU), batch submission,
// admission backpressure, in-flight coalescing, and job scheduling/
// cancellation.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

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
  vary([](auto& c) { c.ga.genome_bits = 40; });
  vary([](auto& c) { c.ga.selection_threshold = util::Prob8::from_double(0.5); });
  vary([](auto& c) { c.ga.crossover_threshold = util::Prob8::from_double(0.5); });
  vary([](auto& c) { c.ga.mutations_per_generation = 16; });
  vary([](auto& c) { c.ga.elitism = true; });
  vary([](auto& c) { c.gap.population_size = 64; });
  vary([](auto& c) { c.gap.genome_bits = 40; });
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
  config.ga.elitism = true;
  config.spec.use_support = true;
  config.max_generations = 777;

  const std::vector<std::uint8_t> bytes = encode_config(config);
  detail::ByteReader reader(bytes);
  const core::EvolutionConfig back = decode_config(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(config_key(back), config_key(config));
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.ga.elitism, true);
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
// runs, captured before the GA moved from BitVec to u64 genomes. Covers
// history (diversity doubles), elitism, and widths 36/40/64.
TEST(Checkpoint, GoldenSnapshotDigests) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t budget;
    std::size_t genome_bits;
    bool track_history;
    bool elitism;
    std::size_t bytes;
    std::uint64_t digest;
  };
  constexpr Case kCases[] = {
    {21, 5, 36, false, false, 688, 0xdac980a1d549ec8cULL},
    {7, 20, 36, true, false, 1444, 0xd1014e09f8c9ee31ULL},
    {3, 1, 36, false, false, 688, 0x7c8f2f7c66d9ee05ULL},
    {1000, 40, 36, false, true, 688, 0x7ac3205b33ec5164ULL},
    {11, 12, 40, false, false, 688, 0x06ad9d72707ecb61ULL},
    {12, 9, 64, true, false, 1048, 0x0cfbc629e9d48f3aULL},
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
    config.ga.genome_bits = c.genome_bits;
    config.ga.elitism = c.elitism;
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
  // Flips in free-valued fields (RNG state, counters, fitness, genome bits
  // below the width, history) are legitimately accepted.
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
  config.sim_mode = rtl::SimMode::kEvent;
  core::EvolutionConfig dense_config = config;
  dense_config.sim_mode = rtl::SimMode::kDense;

  EvolutionService event_service(1);
  EvolutionService dense_service(1);
  const core::EvolutionResult ev = event_service.submit(config).wait();
  const core::EvolutionResult de = dense_service.submit(dense_config).wait();

  EXPECT_EQ(ev.best_genome, de.best_genome);
  EXPECT_EQ(ev.best_fitness, de.best_fitness);
  EXPECT_EQ(ev.generations, de.generations);
  EXPECT_EQ(ev.clock_cycles, de.clock_cycles);
  EXPECT_EQ(ev.evaluations, de.evaluations);
  // And because results are identical, the two modes sharing one cache
  // entry is correct: same service, different mode -> cache hit.
  JobHandle cached = event_service.submit(dense_config);
  EXPECT_EQ(cached.wait().best_genome, ev.best_genome);
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

TEST(Service, CacheCanBeBypassedAndCleared) {
  const core::EvolutionConfig config = base_config(13);
  EvolutionService service(2);
  (void)service.submit(config).wait();

  JobOptions no_cache;
  no_cache.use_cache = false;
  JobHandle fresh = service.submit(config, no_cache);
  (void)fresh.wait();
  EXPECT_FALSE(fresh.from_cache());
  EXPECT_EQ(service.cache_stats().hits, 0u);

  service.clear_cache();
  EXPECT_EQ(service.cache_stats().entries, 0u);
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

TEST(Service, CheckpointWhileRunningDoesNotPerturbTheRun) {
  const core::EvolutionConfig config = stuck_config();
  const std::uint64_t kBudget = 20'000;

  EvolutionService service(1);
  JobOptions options;
  options.generation_budget = kBudget;
  options.use_cache = false;
  JobHandle job = service.submit(config, options);

  // Capture a mid-run snapshot; the job keeps running to its budget.
  const Snapshot mid = job.checkpoint();
  EXPECT_LE(mid.state.generation, kBudget);
  const core::EvolutionResult at_budget = job.wait();
  EXPECT_EQ(job.state(), JobState::kSuspended);
  EXPECT_EQ(at_budget.generations, kBudget);

  // Resuming the mid-run snapshot to the same budget matches the
  // checkpointed run exactly: checkpoints are observation, not mutation.
  JobOptions rest = options;
  JobHandle resumed = service.resume(mid, rest);
  const core::EvolutionResult replay = resumed.wait();
  EXPECT_EQ(replay.generations, at_budget.generations);
  EXPECT_EQ(replay.best_genome, at_budget.best_genome);
  EXPECT_EQ(replay.evaluations, at_budget.evaluations);
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

TEST(Service, PriorityOrdersQueuedJobs) {
  // Comparator: higher priority first, FIFO within a priority.
  const auto job = [](std::uint64_t id, int priority) {
    JobOptions options;
    options.priority = priority;
    return detail::Job(id, core::EvolutionConfig{}, options, 0);
  };
  EXPECT_TRUE(schedule_before(job(2, 5), job(1, 0)));
  EXPECT_FALSE(schedule_before(job(2, 0), job(1, 5)));
  EXPECT_TRUE(schedule_before(job(1, 3), job(2, 3)));

  // End to end: while a blocker occupies the single worker, a high-priority
  // job submitted after a low-priority one must run (and finish) first.
  EvolutionService service(1);
  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 500'000;
  JobHandle blocker = service.submit(stuck_config(), blocker_opts);

  JobOptions low, high;
  low.priority = 0;
  high.priority = 9;
  JobHandle low_job = service.submit(base_config(60), low);
  JobHandle high_job = service.submit(base_config(61), high);
  blocker.cancel();

  (void)low_job.wait();
  (void)high_job.wait();
  EXPECT_LT(high_job.completion_index(), low_job.completion_index());
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

TEST(Service, GenomeWiderThan64BitsFailsCleanly) {
  EvolutionService service(1);
  core::EvolutionConfig wide = base_config(1);
  wide.ga.genome_bits = 65;  // the software GA packs genomes into a u64
  JobHandle job = service.submit(wide);
  EXPECT_THROW((void)job.wait(), std::runtime_error);
  EXPECT_EQ(job.state(), JobState::kFailed);
  EXPECT_NE(job.error().find("genome_bits"), std::string::npos) << job.error();
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
/// resumable kSuspended: it ends kBudgetExhausted with no snapshot, and
/// checkpoint() refuses rather than handing back garbage.
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
  // The RTL loop polls its RunControl at a coarse boundary, so the stop
  // lands at-or-after the budget — never before.
  EXPECT_GE(partial.generations, 2u);
  EXPECT_FALSE(partial.reached_target);
  EXPECT_FALSE(job.snapshot().has_value());
  EXPECT_THROW((void)job.checkpoint(), std::runtime_error);
  // The partial result never pollutes the deterministic cache.
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

// ---- in-flight coalescing ----------------------------------------------

/// The acceptance criterion (and the check-then-act regression): a batch
/// of identical submissions races the cache — every job misses it before
/// the first execution completes — yet the engine must run exactly once.
/// Coalescing closes the race: the first submission becomes the primary,
/// every later one either attaches to it in flight or (if the primary
/// already finished) hits the cache. Verified via the obs counters.
TEST(Coalescing, BatchOf64IdenticalConfigsRunsEngineOnce) {
  const core::EvolutionConfig config = base_config(77);
  const core::EvolutionResult direct = core::evolve(config);

  const std::uint64_t submitted0 =
      counter_value("leo_serve_jobs_submitted_total");
  const std::uint64_t coalesced0 =
      counter_value("leo_serve_jobs_coalesced_total");
  const std::uint64_t hits0 = counter_value("leo_serve_cache_hits_total");
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
  const std::uint64_t hits = counter_value("leo_serve_cache_hits_total") - hits0;
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
  JobOptions options;
  options.generation_budget = 10'000;
  JobHandle primary = service.submit(stuck_config(), options);
  JobHandle follower = service.submit(stuck_config(), options);
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

TEST(Admission, RejectPolicyThrowsTypedErrorAtCapacity) {
  ServiceOptions opts;
  opts.threads = 1;
  opts.max_queue_depth = 2;
  opts.admission = AdmissionPolicy::kReject;
  EvolutionService service(opts);

  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 100'000'000;
  JobHandle blocker = service.submit(stuck_config(), blocker_opts);
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();

  JobOptions queued_opts;
  queued_opts.use_cache = false;
  queued_opts.generation_budget = 50;
  JobHandle q1 = service.submit(stuck_config(), queued_opts);
  JobHandle q2 = service.submit(stuck_config(), queued_opts);
  EXPECT_EQ(service.queue_depth(), 2u);

  const std::uint64_t rejected0 =
      counter_value("leo_serve_admission_rejected_total");
  for (int i = 0; i < 20; ++i) {
    EXPECT_THROW((void)service.submit(stuck_config(), queued_opts),
                 QueueFullError);
    EXPECT_LE(service.queue_depth(), 2u);
  }
  EXPECT_EQ(counter_value("leo_serve_admission_rejected_total") - rejected0,
            20u);

  blocker.cancel();
  (void)blocker.wait();
  (void)q1.wait();
  (void)q2.wait();
  EXPECT_EQ(service.queue_depth(), 0u);
}

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
  blocker_opts.priority = 10;
  JobHandle blocker_a = service.submit(stuck_config(), blocker_opts);
  JobHandle blocker_b = service.submit(stuck_config(), blocker_opts);
  while (blocker_a.state() == JobState::kQueued ||
         blocker_b.state() == JobState::kQueued) {
    std::this_thread::yield();
  }

  // 10x the admission cap, from four submitter threads. Every submit
  // either enqueues under the bound or blocks until a worker frees a slot.
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

  // The queue fills to the cap and the submitters block. Unblock the
  // workers and watch the bound hold while the burst drains.
  while (service.queue_depth() < opts.max_queue_depth) {
    std::this_thread::yield();
  }
  const std::uint64_t blocked =
      counter_value("leo_serve_admission_blocked_total");
  EXPECT_GT(blocked, 0u);
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

TEST(Admission, ShedPolicyEvictsLowestPriorityAndBoundsTheQueue) {
  ServiceOptions opts;
  opts.threads = 1;
  opts.max_queue_depth = 2;
  opts.admission = AdmissionPolicy::kShed;
  EvolutionService service(opts);

  JobOptions blocker_opts;
  blocker_opts.use_cache = false;
  blocker_opts.generation_budget = 100'000'000;
  blocker_opts.priority = 99;
  JobHandle blocker = service.submit(stuck_config(), blocker_opts);
  while (blocker.state() == JobState::kQueued) std::this_thread::yield();

  JobOptions lo, mid, hi;
  lo.use_cache = mid.use_cache = hi.use_cache = false;
  lo.generation_budget = mid.generation_budget = hi.generation_budget = 50;
  lo.priority = 1;
  mid.priority = 5;
  hi.priority = 9;
  JobHandle a = service.submit(stuck_config(), lo);
  JobHandle b = service.submit(stuck_config(), mid);
  EXPECT_EQ(service.queue_depth(), 2u);

  // A higher-priority newcomer sheds the lowest-priority queued job.
  JobHandle c = service.submit(stuck_config(), hi);
  EXPECT_EQ(a.state(), JobState::kRejected);
  EXPECT_NE(c.state(), JobState::kRejected);
  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_THROW((void)a.wait(), std::runtime_error);
  EXPECT_FALSE(a.error().empty());

  // Ties shed the newcomer: queued-first wins at equal priority.
  JobHandle d = service.submit(stuck_config(), mid);
  EXPECT_EQ(d.state(), JobState::kRejected);
  EXPECT_EQ(service.queue_depth(), 2u);

  // A 10x-cap burst of low-priority work all sheds itself; the bound and
  // the queued higher-priority jobs are untouched.
  const std::uint64_t rejected0 =
      counter_value("leo_serve_jobs_rejected_total");
  for (int i = 0; i < 20; ++i) {
    JobHandle shed = service.submit(stuck_config(), lo);
    EXPECT_EQ(shed.state(), JobState::kRejected);
    EXPECT_LE(service.queue_depth(), 2u);
  }
  EXPECT_EQ(counter_value("leo_serve_jobs_rejected_total") - rejected0, 20u);

  blocker.cancel();
  (void)blocker.wait();
  (void)b.wait();
  (void)c.wait();
  EXPECT_EQ(b.state(), JobState::kSuspended);
  EXPECT_EQ(c.state(), JobState::kSuspended);
}

// ---- live-job bookkeeping (the unbounded-growth regression) -------------

/// live_jobs_ used to grow by one weak_ptr per submission for the life of
/// the service. Push waves of short jobs through and assert the vector
/// stays O(live): an uncompacted implementation would hold one entry per
/// job ever submitted (kWaves * kWave = 1000 here).
TEST(Service, LiveJobsBookkeepingStaysBoundedUnderSweepTraffic) {
  EvolutionService service(2);
  JobOptions options;
  options.use_cache = false;
  options.generation_budget = 20;

  constexpr std::size_t kWaves = 5;
  constexpr std::size_t kWave = 200;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<JobHandle> handles;
    handles.reserve(kWave);
    for (std::size_t i = 0; i < kWave; ++i) {
      handles.push_back(service.submit(stuck_config(), options));
    }
    for (JobHandle& handle : handles) (void)handle.wait();
  }

  EXPECT_LT(service.live_jobs_size(), kWaves * kWave / 2)
      << "terminal entries are accumulating instead of being compacted";
  EXPECT_EQ(service.queue_depth(), 0u);
}

// ---- sharded LRU result cache ------------------------------------------

core::EvolutionResult fake_result(std::uint64_t tag) {
  core::EvolutionResult result;
  result.best_genome = tag;
  result.generations = tag;
  return result;
}

TEST(CacheLRU, EvictsLeastRecentlyUsedFirst) {
  ResultCache cache(2, 1);
  EXPECT_EQ(cache.capacity(), 2u);
  EXPECT_EQ(cache.shard_count(), 1u);

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
  EXPECT_EQ(stats.shards, 1u);
}

TEST(CacheLRU, OverwriteRefreshesInsteadOfEvicting) {
  ResultCache cache(2, 1);
  cache.insert(1, fake_result(1));
  cache.insert(2, fake_result(2));
  cache.insert(1, fake_result(1));  // overwrite: refresh, no eviction
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(3, fake_result(3));  // 2 is now least recently used
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
}

TEST(CacheLRU, ShardedStatsStayConsistentUnderSweep) {
  ResultCache cache(64, 8);
  EXPECT_EQ(cache.shard_count(), 8u);
  // Spread keys like real config hashes so all shards participate.
  const auto key = [](std::uint64_t i) { return i * 0x9E3779B97F4A7C15ull; };

  constexpr std::uint64_t kKeys = 200;
  for (std::uint64_t i = 0; i < kKeys; ++i) cache.insert(key(i), fake_result(i));

  CacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 64u);
  EXPECT_EQ(stats.entries + stats.evictions, kKeys)
      << "every insert either grew the cache or evicted exactly one entry";
  EXPECT_EQ(cache.size(), stats.entries);

  std::uint64_t present = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    if (cache.lookup(key(i)).has_value()) ++present;
  }
  stats = cache.stats();
  EXPECT_EQ(present, stats.entries);
  EXPECT_EQ(stats.hits, present);
  EXPECT_EQ(stats.misses, kKeys - present);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CacheLRU, ClearRacesLookupAndInsertWithoutCorruption) {
  ResultCache cache(128, 4);
  std::atomic<bool> stop{false};
  constexpr std::uint64_t kInserts = 30'000;

  std::thread writer([&cache, &stop] {
    for (std::uint64_t i = 0; i < kInserts; ++i) {
      cache.insert(i & 0x3FF, fake_result(i & 0x3FF));
    }
    stop.store(true, std::memory_order_relaxed);
  });
  std::thread reader([&cache, &stop] {
    std::uint64_t key = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (const auto hit = cache.lookup(key & 0x3FF)) {
        // Entries are copied out whole: the tag fields always agree.
        EXPECT_EQ(hit->best_genome, hit->generations);
      }
      ++key;
    }
  });
  std::thread clearer([&cache, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.clear();
      (void)cache.stats();
      std::this_thread::yield();
    }
  });
  writer.join();
  reader.join();
  clearer.join();

  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, cache.capacity());
  EXPECT_EQ(cache.size(), stats.entries);
}

}  // namespace
}  // namespace leo::serve
