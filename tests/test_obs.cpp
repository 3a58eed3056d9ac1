// Tests for the observability subsystem: histogram bucket semantics,
// snapshot/merge, exporters, trace spans, the periodic flusher, and the
// util::log hook bridge (including the concurrent-registration race).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace leo::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A sink that records everything it receives, for flusher/log tests.
class CapturingSink : public TelemetrySink {
 public:
  void on_snapshot(const MetricsSnapshot& snapshot) override {
    const std::scoped_lock lock(mutex_);
    snapshots_.push_back(snapshot);
  }
  void on_log(const LogEvent& event) override {
    const std::scoped_lock lock(mutex_);
    logs_.push_back(event);
  }
  [[nodiscard]] std::vector<MetricsSnapshot> snapshots() {
    const std::scoped_lock lock(mutex_);
    return snapshots_;
  }
  [[nodiscard]] std::vector<LogEvent> logs() {
    const std::scoped_lock lock(mutex_);
    return logs_;
  }

 private:
  std::mutex mutex_;
  std::vector<MetricsSnapshot> snapshots_;
  std::vector<LogEvent> logs_;
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

// ---- histogram bucket semantics ----------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperEdges) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1        -> bucket 0
  h.observe(1.0);  // == bound 0  -> bucket 0 (inclusive upper edge)
  h.observe(1.5);  // (1, 2]      -> bucket 1
  h.observe(2.0);  // == bound 1  -> bucket 1
  h.observe(4.0);  // == bound 2  -> bucket 2
  h.observe(5.0);  // > 4         -> overflow

  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);  // overflow bucket
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), s.sum / 6.0);
}

TEST(Histogram, OverflowBucketCatchesEverythingAboveLastBound) {
  Histogram h({1.0});
  h.observe(1.0000001);
  h.observe(1e12);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts[0], 0u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.count, 2u);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, SnapshotMergeAddsBucketwise) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.observe(0.5);
  a.observe(3.0);
  b.observe(1.5);
  b.observe(0.25);

  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counts[0], 2u);
  EXPECT_EQ(merged.counts[1], 1u);
  EXPECT_EQ(merged.counts[2], 1u);
  EXPECT_EQ(merged.count, 4u);
  EXPECT_DOUBLE_EQ(merged.sum, 0.5 + 3.0 + 1.5 + 0.25);

  Histogram other({9.0});
  EXPECT_THROW(merged.merge(other.snapshot()), std::invalid_argument);
}

TEST(Histogram, AgreesWithUtilRunningStats) {
  // Same stream through obs::Histogram and util::RunningStats: count,
  // sum and mean must agree exactly (both accumulate plain doubles).
  Histogram h(duration_buckets());
  util::RunningStats stats;
  double x = 1e-7;
  for (int i = 0; i < 64; ++i) {
    h.observe(x);
    stats.add(x);
    x *= 1.4;
  }
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 64u);
  EXPECT_DOUBLE_EQ(s.mean(), stats.mean());
  std::uint64_t total = 0;
  for (const std::uint64_t c : s.counts) total += c;
  EXPECT_EQ(total, s.count) << "buckets must reconcile with count";
}

TEST(Histogram, DurationBucketsCoverMicrosecondsToSeconds) {
  const std::vector<double> bounds = duration_buckets();
  ASSERT_FALSE(bounds.empty());
  EXPECT_LE(bounds.front(), 1e-6);
  EXPECT_GE(bounds.back(), 1.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ---- registry ----------------------------------------------------------

TEST(Registry, InstrumentsAreStableAndSnapshotIsPlainValues) {
  MetricsRegistry reg;
  Counter& c = reg.counter("leo_test_events_total");
  EXPECT_EQ(&c, &reg.counter("leo_test_events_total"));
  c.inc(3);
  reg.gauge("leo_test_depth").set(2.0);
  reg.histogram("leo_test_latency_seconds").observe(0.001);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("leo_test_events_total"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("leo_test_depth"), 2.0);
  EXPECT_EQ(snap.histograms.at("leo_test_latency_seconds").count, 1u);

  // The snapshot is a copy: later increments do not mutate it.
  c.inc();
  EXPECT_EQ(snap.counters.at("leo_test_events_total"), 3u);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.snapshot().histograms.at("leo_test_latency_seconds").count,
            0u);
}

TEST(Registry, HistogramLookupReturnsTheRegisteredInstance) {
  MetricsRegistry reg;
  Histogram& d = reg.histogram("leo_test_span_seconds");
  EXPECT_EQ(&d, &reg.histogram("leo_test_span_seconds"));
  d.observe(0.5);
  EXPECT_EQ(reg.snapshot().histograms.at("leo_test_span_seconds").bounds,
            duration_buckets());

  // A histogram registered with custom bounds keeps them when later looked
  // up through the duration overload.
  Histogram& custom = reg.histogram("leo_test_sizes", {1.0, 2.0});
  EXPECT_EQ(&custom, &reg.histogram("leo_test_sizes"));
  EXPECT_EQ(reg.snapshot().histograms.at("leo_test_sizes").bounds,
            (std::vector<double>{1.0, 2.0}));
}

TEST(Registry, SnapshotMergeCombines) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("shared_total").inc(1);
  b.counter("shared_total").inc(2);
  b.gauge("depth").set(7.0);
  a.histogram("lat", {1.0}).observe(0.5);
  b.histogram("lat", {1.0}).observe(2.0);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("shared_total"), 3u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("depth"), 7.0);
  EXPECT_EQ(merged.histograms.at("lat").count, 2u);
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
  reg.histogram("leo_lat_seconds", {0.1, 1.0}).observe(0.05);

  const std::string line = to_json_line(reg.snapshot());
  EXPECT_NE(line.find("\"type\":\"metrics\""), std::string::npos);
  EXPECT_NE(line.find("\"leo_x_total\":5"), std::string::npos);
  EXPECT_NE(line.find("\"leo_depth\":1.5"), std::string::npos);
  EXPECT_NE(line.find("\"counts\":[1,0,0]"), std::string::npos);
  EXPECT_NE(line.find("\"count\":1"), std::string::npos);
}

TEST(Export, JsonEscapesControlCharactersInNames) {
  MetricsRegistry reg;
  reg.counter("weird\"name\n").inc();
  const std::string line = to_json_line(reg.snapshot());
  EXPECT_NE(line.find("weird\\\"name\\n"), std::string::npos);
}

TEST(Export, PrometheusTextHasCumulativeBucketsAndInf) {
  MetricsRegistry reg;
  reg.counter("leo_events_total").inc(2);
  Histogram& h = reg.histogram("leo_lat_seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  const std::string text = to_prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE leo_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("leo_events_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE leo_lat_seconds histogram"), std::string::npos);
  // Buckets are cumulative: le="1" sees 1, le="2" sees 2, +Inf sees all 3.
  EXPECT_NE(text.find("leo_lat_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("leo_lat_seconds_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("leo_lat_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("leo_lat_seconds_count 3"), std::string::npos);
}

TEST(Export, PrettyPrintListsEverySection) {
  MetricsRegistry reg;
  reg.counter("leo_a_total").inc();
  reg.gauge("leo_b").set(3.0);
  reg.histogram("leo_c_seconds").observe(0.5);
  const std::string text = pretty_print(reg.snapshot());
  EXPECT_NE(text.find("leo_a_total"), std::string::npos);
  EXPECT_NE(text.find("leo_b"), std::string::npos);
  EXPECT_NE(text.find("leo_c_seconds"), std::string::npos);
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
    sink.on_log({util::LogLevel::kWarn, "tag", "msg", 123});
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"leo_n_total\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"leo_n_total\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"log\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"level\":\"warn\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Export, PrometheusSinkRewritesWholeFile) {
  const std::string path = ::testing::TempDir() + "obs_prom.txt";
  PrometheusTextSink sink(path);
  MetricsRegistry reg;
  reg.counter("leo_n_total").inc(7);
  sink.on_snapshot(reg.snapshot());
  sink.on_snapshot(reg.snapshot());  // rewrite, not append
  const std::string text = read_file(path);
  EXPECT_NE(text.find("leo_n_total 7"), std::string::npos);
  EXPECT_EQ(text.find("leo_n_total 7"),
            text.rfind("leo_n_total 7"));
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

// ---- trace spans -------------------------------------------------------

TEST(Trace, SpanFeedsSecondsHistogramInGlobalRegistry) {
  const std::uint64_t before =
      registry().histogram("leo_test_span_seconds").snapshot().count;
  {
    TraceSpan span("leo_test_span");
  }
  EXPECT_EQ(registry().histogram("leo_test_span_seconds").snapshot().count,
            before + 1);
}

TEST(Trace, RepeatedSpansOfEachNameLandInItsOwnHistogram) {
  auto count = [](const char* histogram) {
    return registry().histogram(histogram).snapshot().count;
  };
  const std::uint64_t a0 = count("leo_test_span_a_seconds");
  const std::uint64_t b0 = count("leo_test_span_b_seconds");
  auto spans = [] {
    for (int i = 0; i < 3; ++i) {
      TraceSpan a("leo_test_span_a");
      TraceSpan b("leo_test_span_b");
      b.close();
      TraceSpan a_again("leo_test_span_a");
    }
  };
  spans();
  std::thread other(spans);
  other.join();
  EXPECT_EQ(count("leo_test_span_a_seconds"), a0 + 12);
  EXPECT_EQ(count("leo_test_span_b_seconds"), b0 + 6);
}

TEST(Trace, CollectorRecordsArmedSpans) {
  TraceCollector collector;
  collector.arm(8);
  EXPECT_TRUE(collector.armed());
  const auto t0 = std::chrono::steady_clock::now();
  collector.record("phase_a", t0, t0 + std::chrono::microseconds(50));
  collector.record("phase_b", t0 + std::chrono::microseconds(60),
                   t0 + std::chrono::microseconds(100));
  collector.disarm();
  EXPECT_FALSE(collector.armed());

  const auto events = collector.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "phase_a");
  EXPECT_EQ(events[0].duration_us, 50u);
  EXPECT_EQ(events[1].name, "phase_b");
  EXPECT_LE(events[0].start_us, events[1].start_us);
}

TEST(Trace, CollectorDropsBeyondCapacityWithoutGrowing) {
  TraceCollector collector;
  collector.arm(2);
  const auto t0 = std::chrono::steady_clock::now();
  collector.record("a", t0, t0);
  collector.record("b", t0, t0);
  collector.record("c", t0, t0);
  EXPECT_EQ(collector.events().size(), 2u);
  EXPECT_EQ(collector.dropped(), 1u);
}

TEST(Trace, ChromeJsonIsWellFormedCompleteEvents) {
  const std::vector<TraceEvent> events = {{"phase_a", 1, 100, 50},
                                          {"phase_b", 2, 160, 40}};
  const std::string json = to_chrome_trace(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase_a\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
}

TEST(Trace, WriteChromeTraceProducesLoadableFile) {
  const std::string path = ::testing::TempDir() + "obs_trace.json";
  write_chrome_trace(path, {{"span", 1, 10, 5}});
  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- util::log hook bridge ---------------------------------------------

TEST(LogHook, SinkReceivesStructuredEventsAndDetachStops) {
  auto sink = std::make_shared<CapturingSink>();
  const std::uint64_t id = attach_log_sink(sink);
  util::log_warn("obs_test", "hello ", 42);
  util::remove_log_hook(id);
  util::log_warn("obs_test", "after detach");

  const auto logs = sink->logs();
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].level, util::LogLevel::kWarn);
  EXPECT_EQ(logs[0].tag, "obs_test");
  EXPECT_EQ(logs[0].message, "hello 42");
  EXPECT_GT(logs[0].unix_micros, 0);
}

TEST(LogHook, HooksMayLogReentrantly) {
  std::atomic<int> nested{0};
  const std::uint64_t id = util::add_log_hook([&nested](
      const util::LogRecord& record) {
    if (record.tag == "outer") {
      nested.fetch_add(1);
      util::log_warn("inner", "from hook");  // must not deadlock
    }
  });
  util::log_warn("outer", "trigger");
  util::remove_log_hook(id);
  EXPECT_EQ(nested.load(), 1);
}

/// The race-free requirement: hooks registering, firing and unregistering
/// from many threads concurrently with logging must neither crash, lose
/// events delivered while attached, nor deliver to detached hooks "long"
/// after removal (one in-flight record is allowed by contract — we only
/// assert memory safety and per-thread event visibility here; TSan covers
/// the rest in the sanitizer CI job).
TEST(LogHook, ConcurrentRegisterLogRemoveIsSafe) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads * 2);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&delivered] {
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t id = util::add_log_hook(
            [&delivered](const util::LogRecord&) {
              delivered.fetch_add(1, std::memory_order_relaxed);
            });
        util::log_error("obs_race", "round ", i);
        util::remove_log_hook(id);
      }
    });
    threads.emplace_back([] {
      for (int i = 0; i < kRounds; ++i) {
        util::log_error("obs_race_other", "noise ", i);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every thread's own hook was attached across its own log_error call,
  // so it saw at least that one event per round.
  EXPECT_GE(delivered.load(), std::uint64_t{kThreads} * kRounds);
}

}  // namespace
}  // namespace leo::obs
