// Metrics registry (counters/gauges/histograms with percentile export)
// and the env-gated structured event trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/obs.h"
#include "support/json_read.h"

namespace rekey::obs {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(Metrics, CounterAndGauge) {
  MetricsRegistry reg;
  Counter& c = reg.counter("packets");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  // Same name returns the same instrument.
  reg.counter("packets").add(5);
  EXPECT_EQ(c.value(), 15u);

  Gauge& g = reg.gauge("rho");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("rho").value(), 1.5);
}

TEST(Metrics, CounterIsThreadSafe) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
}

TEST(Metrics, HistogramBasicStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);

  for (double v : {4.0, 8.0, 12.0}) h.observe(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 24.0);
  EXPECT_DOUBLE_EQ(h.min(), 4.0);
  EXPECT_DOUBLE_EQ(h.max(), 12.0);
  EXPECT_DOUBLE_EQ(h.mean(), 8.0);
}

TEST(Metrics, HistogramPercentiles) {
  Histogram single;
  single.observe(7.0);
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(single.percentile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(single.percentile(1.0), 7.0);

  // Log-linear buckets give ~3% relative resolution: a uniform ramp's
  // quantiles come back within a few percent.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(0.5), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(h.percentile(0.9), 900.0, 900.0 * 0.05);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 990.0 * 0.05);
  // Percentiles are clamped to the observed range.
  EXPECT_GE(h.percentile(0.0), 1.0);
  EXPECT_LE(h.percentile(1.0), 1000.0);
}

TEST(Metrics, HistogramToJson) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  Json j = h.to_json();
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(test::at(j, "count").as_int(), 100);
  EXPECT_DOUBLE_EQ(test::as_double(test::at(j, "sum")), 5050.0);
  EXPECT_DOUBLE_EQ(test::as_double(test::at(j, "min")), 1.0);
  EXPECT_DOUBLE_EQ(test::as_double(test::at(j, "max")), 100.0);
  EXPECT_TRUE(j.contains("p50"));
  EXPECT_TRUE(j.contains("p90"));
  EXPECT_TRUE(j.contains("p99"));
}

TEST(Metrics, RegistrySnapshotAndReset) {
  MetricsRegistry reg;
  reg.counter("b_count").add(2);
  reg.counter("a_count").add(1);
  reg.gauge("rho").set(1.6);
  reg.histogram("latency").observe(3.0);

  Json snap = reg.to_json();
  const auto& counters = test::at(snap, "counters").as_object();
  ASSERT_EQ(counters.size(), 2u);
  // Lexicographic order in the snapshot regardless of creation order.
  EXPECT_EQ(counters[0].first, "a_count");
  EXPECT_EQ(counters[1].first, "b_count");
  EXPECT_EQ(counters[1].second.as_int(), 2);
  EXPECT_DOUBLE_EQ(test::as_double(test::at(test::at(snap, "gauges"), "rho")),
                   1.6);
  const Json& latency = test::at(test::at(snap, "histograms"), "latency");
  EXPECT_EQ(test::at(latency, "count").as_int(), 1);

  reg.reset();
  Json empty = reg.to_json();
  EXPECT_EQ(test::size(test::at(empty, "counters")), 0u);
  EXPECT_EQ(test::size(test::at(empty, "gauges")), 0u);
  EXPECT_EQ(test::size(test::at(empty, "histograms")), 0u);
}

TEST(Metrics, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(Trace, DisabledByDefaultAndEmitIsNoOp) {
  Trace::close();
  EXPECT_FALSE(trace_enabled());
  // Emitting with no sink must be harmless.
  Trace::emit("noop", {{"x", 1}});
  EXPECT_FALSE(trace_enabled());
}

TEST(Trace, EmitsParseableJsonLinesWithSequenceNumbers) {
  const std::string path = temp_path("rekey_trace_test.jsonl");
  Trace::open(path);
  EXPECT_TRUE(trace_enabled());
  Trace::emit("round", {{"round", 1}, {"nacks", 37}, {"rho", 1.5}});
  Trace::emit("unicast_wave", {{"wave", 2}, {"users", 5}});
  Trace::close();
  EXPECT_FALSE(trace_enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<Json> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = test::parse_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    lines.push_back(std::move(*parsed));
  }
  ASSERT_EQ(lines.size(), 2u);

  EXPECT_EQ(test::at(lines[0], "ev").as_string(), "round");
  EXPECT_EQ(test::at(lines[0], "round").as_int(), 1);
  EXPECT_EQ(test::at(lines[0], "nacks").as_int(), 37);
  EXPECT_DOUBLE_EQ(test::as_double(test::at(lines[0], "rho")), 1.5);
  EXPECT_EQ(test::at(lines[1], "ev").as_string(), "unicast_wave");
  EXPECT_EQ(test::at(lines[1], "users").as_int(), 5);

  // The process-wide sequence keeps interleaved emissions ordered.
  ASSERT_TRUE(lines[0].contains("seq"));
  ASSERT_TRUE(lines[1].contains("seq"));
  EXPECT_EQ(test::at(lines[1], "seq").as_int(),
            test::at(lines[0], "seq").as_int() + 1);

  std::remove(path.c_str());
}

TEST(Trace, ReopenOverridesPreviousSink) {
  const std::string a = temp_path("rekey_trace_a.jsonl");
  const std::string b = temp_path("rekey_trace_b.jsonl");
  Trace::open(a);
  Trace::emit("first", {});
  Trace::open(b);
  Trace::emit("second", {});
  Trace::close();

  std::ifstream ia(a), ib(b);
  std::string la, lb;
  ASSERT_TRUE(std::getline(ia, la));
  ASSERT_TRUE(std::getline(ib, lb));
  EXPECT_NE(la.find("\"first\""), std::string::npos);
  EXPECT_NE(lb.find("\"second\""), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
}  // namespace rekey::obs
