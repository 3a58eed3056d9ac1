// Tests for the observability subsystem: counters, snapshots, and the
// JSON and pretty-print renderings.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"

namespace leo::obs {
namespace {

// ---- counters ----------------------------------------------------------

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

// ---- registry ----------------------------------------------------------

TEST(Registry, InstrumentsAreStableAndSnapshotIsPlainValues) {
  MetricsRegistry reg;
  Counter& c = reg.counter("leo_test_events_total");
  EXPECT_EQ(&c, &reg.counter("leo_test_events_total"));
  c.inc(3);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("leo_test_events_total"), 3u);

  // The snapshot is a copy: later increments do not mutate it.
  c.inc();
  EXPECT_EQ(snap.counters.at("leo_test_events_total"), 3u);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Registry, DisabledGateStopsNewSamplesOnly) {
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
}

// ---- exporters ---------------------------------------------------------

TEST(Export, JsonLineRoundTripsThroughExpectedShape) {
  MetricsRegistry reg;
  reg.counter("leo_x_total").inc(5);
  reg.counter("leo_y_total").inc(2);

  EXPECT_EQ(to_json_line(reg.snapshot()),
            "{\"type\":\"metrics\",\"counters\":"
            "{\"leo_x_total\":5,\"leo_y_total\":2}}");
}

TEST(Export, JsonEscapesControlCharactersInNames) {
  MetricsRegistry reg;
  reg.counter("weird\"name\n").inc();
  const std::string line = to_json_line(reg.snapshot());
  EXPECT_NE(line.find("weird\\\"name\\n"), std::string::npos);
}

TEST(Export, PrettyPrintListsEverySection) {
  MetricsRegistry reg;
  EXPECT_EQ(pretty_print(reg.snapshot()), "(no metrics recorded)\n");
  reg.counter("leo_a_total").inc();
  reg.counter("leo_b_total").inc(3);
  EXPECT_EQ(pretty_print(reg.snapshot()),
            "counters:\n  leo_a_total  1\n  leo_b_total  3\n");
}

}  // namespace
}  // namespace leo::obs
