// Exact heap allocation counts of the evolution service's two hot paths:
// one software job through submit() + wait(), and one cache hit. A count
// is a work measure that machine noise cannot move, so the serve layer's
// per-job overhead is pinned here the way Simulator::evaluations() pins
// the RTL kernel's.
//
// This is its own executable because it replaces the global operator
// new. The counter is per thread and only counts while a test arms it,
// so only the test thread's allocations inside the measured window count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <thread>

#include "serve/scheduler.hpp"

namespace {

thread_local bool counting = false;
thread_local std::size_t allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (counting) ++allocations;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

// GCC takes a replacement operator delete's parameter for a pointer that
// operator new returned, and so calls the free() below mismatched.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace leo::serve {
namespace {

/// Counts the calling thread's allocations while `body` runs.
template <typename Body>
std::size_t allocations_of(Body&& body) {
  allocations = 0;
  counting = true;
  body();
  counting = false;
  return allocations;
}

core::EvolutionConfig software_config(std::uint64_t seed) {
  core::EvolutionConfig config;
  config.backend = core::Backend::kSoftware;
  config.seed = seed;
  return config;
}

/// Runs until cancelled: no crossover, no mutation, a huge generation cap.
core::EvolutionConfig endless_config() {
  core::EvolutionConfig config = software_config(424242);
  config.ga.mutations_per_generation = 0;
  config.ga.crossover_threshold = util::Prob8::from_double(0.0);
  config.max_generations = 20'000'000;
  return config;
}

/// A 1-worker service whose worker is held by an endless job, so every
/// later job sits at the queue's head until its waiter runs it on the
/// test thread: the whole job is counted, and nothing races the count.
class ServiceAllocations : public ::testing::Test {
 protected:
  void SetUp() override {
    blocker_ = service_.submit(endless_config());
    while (blocker_.state() == JobState::kQueued) std::this_thread::yield();
    // Warm-up through the same path: lazy statics (metric instruments,
    // fitness tables) and the running-job set's second slot.
    (void)service_.submit(software_config(1), no_cache()).wait();
  }

  void TearDown() override {
    blocker_.cancel();
    (void)blocker_.wait();
  }

  static JobOptions no_cache() {
    JobOptions options;
    options.use_cache = false;
    return options;
  }

  EvolutionService service_{1};
  JobHandle blocker_;
};

TEST_F(ServiceAllocations, SoftwareSubmitAndWait) {
  JobHandle job;
  const std::size_t count = allocations_of([&] {
    job = service_.submit(software_config(7), no_cache());
    (void)job.wait();
  });
  EXPECT_EQ(job.state(), JobState::kSucceeded);
  EXPECT_FALSE(job.from_cache());
  // 1. submit(): the make_shared<detail::Job>, one block for the control
  //    block and the job.
  // 2. run_job(): the GaEngine's initial population (32 individuals).
  // 3. run_job(): the GaEngine's next-generation buffer, the same size.
  // 4. make_snapshot(): the snapshot's copy of the population.
  // Nothing else: config_key() hashes as it encodes (it made 8 allocations
  // per key, twice per job, when it built the byte vector first), the
  // RunControl hooks fit std::function's inline buffer, the queue's
  // current block has room, and the result has no history to copy.
  EXPECT_EQ(count, 4u);
}

TEST_F(ServiceAllocations, CacheHit) {
  (void)service_.submit(software_config(3)).wait();  // fills the cache
  JobHandle hit;
  const std::size_t count = allocations_of([&] {
    hit = service_.submit(software_config(3));
    (void)hit.wait();
  });
  EXPECT_TRUE(hit.from_cache());
  // 1. The make_shared<detail::Job>. The cached result has no history to
  //    copy, and config_key() allocates nothing (8 allocations before it
  //    hashed as it encodes).
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace leo::serve
