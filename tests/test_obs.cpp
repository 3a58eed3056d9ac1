// Tests for the observability subsystem: counters and gauges, snapshots,
// and the JSON and pretty-print renderings.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"

namespace leo::obs {
namespace {

// ---- counters and gauges -----------------------------------------------

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddAndReset) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
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
  reg.gauge("leo_test_depth").set(2.0);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("leo_test_events_total"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("leo_test_depth"), 2.0);

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
  reg.gauge("leo_depth").set(1.5);

  EXPECT_EQ(to_json_line(reg.snapshot()),
            "{\"type\":\"metrics\",\"counters\":{\"leo_x_total\":5},"
            "\"gauges\":{\"leo_depth\":1.5}}");
}

TEST(Export, JsonEscapesControlCharactersInNames) {
  MetricsRegistry reg;
  reg.counter("weird\"name\n").inc();
  const std::string line = to_json_line(reg.snapshot());
  EXPECT_NE(line.find("weird\\\"name\\n"), std::string::npos);
}

TEST(Export, PrettyPrintListsEverySection) {
  MetricsRegistry reg;
  reg.counter("leo_a_total").inc();
  reg.gauge("leo_b").set(3.0);
  const std::string text = pretty_print(reg.snapshot());
  EXPECT_NE(text.find("leo_a_total"), std::string::npos);
  EXPECT_NE(text.find("leo_b"), std::string::npos);
}

}  // namespace
}  // namespace leo::obs
