// Tests for the observability subsystem: counters and gauges, snapshots,
// the JSON exporter and the periodic flusher.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"

namespace leo::obs {
namespace {

/// A sink that records every snapshot it receives, for flusher tests.
class CapturingSink : public TelemetrySink {
 public:
  void on_snapshot(const MetricsSnapshot& snapshot) override {
    const std::scoped_lock lock(mutex_);
    snapshots_.push_back(snapshot);
  }
  [[nodiscard]] std::vector<MetricsSnapshot> snapshots() {
    const std::scoped_lock lock(mutex_);
    return snapshots_;
  }

 private:
  std::mutex mutex_;
  std::vector<MetricsSnapshot> snapshots_;
};

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

TEST(Export, JsonLinesSinkAppendsOneObjectPerLine) {
  const std::string path = ::testing::TempDir() + "obs_lines.jsonl";
  std::remove(path.c_str());
  {
    JsonLinesSink sink(path);
    MetricsRegistry reg;
    reg.counter("leo_n_total").inc(1);
    sink.on_snapshot(reg.snapshot());
    reg.counter("leo_n_total").inc(1);
    sink.on_snapshot(reg.snapshot());
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"leo_n_total\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"leo_n_total\":2"), std::string::npos);
  std::remove(path.c_str());
}

// ---- periodic flusher --------------------------------------------------

TEST(Flusher, DeliversSnapshotsAndFinalFlushOnStop) {
  auto sink = std::make_shared<CapturingSink>();
  MetricsRegistry reg;
  reg.counter("leo_n_total").inc(9);
  {
    PeriodicFlusher flusher(sink, std::chrono::milliseconds(5), reg);
    flusher.flush_now();
    EXPECT_GE(flusher.flushes(), 1u);
  }  // destructor: stop + final flush
  const auto snapshots = sink->snapshots();
  ASSERT_GE(snapshots.size(), 2u);
  EXPECT_EQ(snapshots.back().counters.at("leo_n_total"), 9u);
}

TEST(Flusher, RejectsNullSink) {
  EXPECT_THROW(PeriodicFlusher(nullptr, std::chrono::milliseconds(10)),
               std::invalid_argument);
}

}  // namespace
}  // namespace leo::obs
