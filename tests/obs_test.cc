// pup::obs — registry, histogram percentiles, scoped timers (including
// cross-thread aggregation), exporters, trace recorder, and the
// zero-allocation steady-state contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace pup::obs {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("pup_obs_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ObsTest, CounterAccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.Get(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Get(), 42u);
  c.Reset();
  EXPECT_EQ(c.Get(), 0u);
}

TEST(ObsTest, GaugeTracksValueAndPeak) {
  Gauge g;
  g.Set(5);
  g.Set(17);
  g.Set(3);
  EXPECT_EQ(g.Get(), 3);
  EXPECT_EQ(g.Max(), 17);
}

TEST(ObsTest, CounterIgnoredWhileDisabled) {
  Counter c;
  SetEnabled(false);
  c.Add(100);
  SetEnabled(true);
  EXPECT_EQ(c.Get(), 0u);
  c.Add(1);
  EXPECT_EQ(c.Get(), 1u);
}

TEST(ObsTest, HistogramCountSumAndExactSmallValues) {
  Histogram h;
  for (uint64_t v : {1u, 2u, 3u}) h.Observe(v);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 6u);
}

TEST(ObsTest, HistogramPercentilesOnUniformRange) {
  // 1000 samples uniform over [1, 1000]: power-of-two buckets with
  // linear interpolation must land within one bucket's resolution
  // (a factor of two) of the exact percentile.
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  const double p50 = h.Percentile(50.0);
  const double p95 = h.Percentile(95.0);
  const double p99 = h.Percentile(99.0);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p95, 475.0);
  EXPECT_LE(p95, 1023.0);
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 1023.0);
  // Order must hold and the empty histogram reads zero.
  EXPECT_LE(p50, p95);
  Histogram empty;
  EXPECT_EQ(empty.Percentile(50.0), 0.0);
}

TEST(ObsTest, HistogramPercentileSingleValueIsItsBucket) {
  Histogram h;
  h.Observe(0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  Histogram h1;
  h1.Observe(1);
  EXPECT_EQ(h1.Percentile(99.0), 1.0);
}

TEST(ObsTest, RegistryFindOrCreateReturnsStableHandles) {
  Registry reg;
  Counter* a = reg.GetCounter("x/a");
  Counter* a2 = reg.GetCounter("x/a");
  EXPECT_EQ(a, a2);
  EXPECT_NE(reg.GetCounter("x/b"), a);
  Histogram* t = reg.GetTimer("x/t");
  EXPECT_EQ(reg.GetTimer("x/t"), t);
  // Timers and histograms are separate namespaces.
  EXPECT_NE(static_cast<void*>(reg.GetHistogram("x/t")),
            static_cast<void*>(t));
}

TEST(ObsTest, ScopedTimerRecordsNonZeroDuration) {
  Registry reg;
  Histogram* t = reg.GetTimer("span");
  {
    ScopedTimer span(t);
    // A handful of clock reads guarantee a nonzero steady-clock delta.
    volatile uint64_t sink = 0;
    for (int i = 0; i < 100; ++i) sink = sink + NowNanos();
    (void)sink;
  }
  EXPECT_EQ(t->Count(), 1u);
  EXPECT_GT(t->Sum(), 0u);
}

TEST(ObsTest, TimerAggregatesAcrossThreads) {
  Registry reg;
  Histogram* t = reg.GetTimer("mt_span");
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([t] {
      for (int k = 0; k < kSpansPerThread; ++k) ScopedTimer span(t);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t->Count(), static_cast<uint64_t>(kThreads * kSpansPerThread));
}

TEST(ObsTest, ScopedTimerMacroAggregatesThroughParallelFor) {
  // The macro used by the instrumented layers: per-chunk spans recorded
  // from pool workers land in one global timer.
  Histogram* t = Registry::Global().GetTimer("obs_test/chunk");
  const uint64_t before = t->Count();
  ParallelFor(0, 64, 8, [&](size_t lo, size_t hi) {
    PUP_OBS_SCOPED_TIMER("obs_test/chunk");
    volatile size_t sink = 0;
    for (size_t i = lo; i < hi; ++i) sink = sink + i;
    (void)sink;
  });
  EXPECT_GT(t->Count(), before);
}

TEST(ObsTest, ExporterGoldenJson) {
  Registry reg;
  reg.GetCounter("a/count")->Add(3);
  reg.GetGauge("b/depth")->Set(7);
  Histogram* h = reg.GetHistogram("c/hist");
  h->Observe(1);
  // One 1ms timer sample: bucket bounds [2^19, 2^20-1] around 1e6 ns.
  reg.GetTimer("d/span")->Observe(1000000);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"a/count\":3}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"b/depth\":{\"value\":7,\"peak\":7}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"c/hist\":{\"count\":1,\"sum\":1,\"p50\":1.000,"
                      "\"p95\":1.000,\"p99\":1.000}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"d/span\":{\"count\":1,\"total_ms\":1.000000"),
            std::string::npos)
      << json;
  // The dump is embeddable in a larger JSON document as-is.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsTest, ExporterGoldenJsonIsDeterministic) {
  // Same values in, byte-identical dump out — names sorted, numbers
  // fixed-precision.
  auto build = [] {
    Registry reg;
    reg.GetCounter("z/last")->Add(1);
    reg.GetCounter("a/first")->Add(2);
    reg.GetGauge("m/mid")->Set(-5);
    return reg.ToJson();
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  // std::map ordering: "a/first" is serialized before "z/last".
  EXPECT_LT(first.find("a/first"), first.find("z/last"));
}

TEST(ObsTest, ExporterTableListsEveryMetric) {
  Registry reg;
  reg.GetCounter("t/count")->Add(9);
  reg.GetGauge("t/depth")->Set(2);
  reg.GetTimer("t/span")->Observe(5000);
  const std::string table = reg.ToTable();
  EXPECT_NE(table.find("t/count"), std::string::npos);
  EXPECT_NE(table.find("t/depth"), std::string::npos);
  EXPECT_NE(table.find("t/span"), std::string::npos);
  EXPECT_NE(table.find("== counters =="), std::string::npos);
}

TEST(ObsTest, ZeroAllocSteadyState) {
  // The PUP_HOT contract: once handles exist (and the macros' statics
  // are initialized), recording allocates nothing — the obs-layer alloc
  // counter (the obs analog of la::MatrixAllocStats) must not move.
  Registry& reg = Registry::Global();
  Counter* c = reg.GetCounter("steady/count");
  Gauge* g = reg.GetGauge("steady/gauge");
  Histogram* h = reg.GetHistogram("steady/hist");
  Histogram* t = reg.GetTimer("steady/span");
  // Warm the macro statics once.
  PUP_OBS_COUNT("steady/macro", 1);
  { PUP_OBS_SCOPED_TIMER("steady/macro_span"); }
  const uint64_t before = AllocationCount();
  for (int i = 0; i < 10000; ++i) {
    c->Add(1);
    g->Set(i);
    h->Observe(static_cast<uint64_t>(i));
    ScopedTimer span(t);
    PUP_OBS_COUNT("steady/macro", 1);
    PUP_OBS_SCOPED_TIMER("steady/macro_span");
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(ObsTest, TraceRecorderEmitsAndDropsAtCapacity) {
  TraceRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) rec.Emit("ev", 100 * i, 50);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
}

TEST(ObsTest, TraceJsonIsChromeTracingFormat) {
  TraceRecorder rec(8);
  rec.Emit("alpha", 1000, 500);
  rec.Emit("beta", 2000, 250);
  const std::string json = rec.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Complete events with microsecond timestamps: 1000ns -> ts 1.000.
  EXPECT_NE(json.find("{\"name\":\"alpha\",\"ph\":\"X\",\"pid\":0,\"tid\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":0.500}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
}

TEST(ObsTest, ScopedTimerFeedsInstalledRecorder) {
  TraceRecorder rec(16);
  TraceRecorder::Install(&rec);
  Registry reg;
  {
    ScopedTimer span(reg.GetTimer("traced"), "traced_span");
  }
  TraceRecorder::Install(nullptr);
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_NE(rec.ToJson().find("traced_span"), std::string::npos);
}

TEST(ObsTest, ScopedExportWritesMetricsAndTraceFiles) {
  const std::string dir = FreshDir("export");
  const std::string metrics_path = dir + "/metrics.json";
  const std::string trace_path = dir + "/trace.json";
  {
    ScopedExport session(metrics_path, trace_path);
    Registry::Global().GetCounter("export_test/seen")->Add(5);
    { PUP_OBS_SCOPED_TIMER("export_test/span"); }
  }
  const std::string metrics = ReadFile(metrics_path);
  EXPECT_NE(metrics.find("\"export_test/seen\":"), std::string::npos)
      << metrics;
  const std::string trace = ReadFile(trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), '[');
  EXPECT_EQ(trace.back(), ']');
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("export_test/span"), std::string::npos) << trace;
  // No recorder left installed after the session.
  EXPECT_EQ(TraceRecorder::Current(), nullptr);
  fs::remove_all(dir);
}

TEST(ObsTest, RegistryResetValuesKeepsHandles) {
  Registry reg;
  Counter* c = reg.GetCounter("r/c");
  c->Add(10);
  Histogram* t = reg.GetTimer("r/t");
  t->Observe(100);
  reg.ResetValues();
  EXPECT_EQ(c->Get(), 0u);
  EXPECT_EQ(t->Count(), 0u);
  // The same handle keeps recording after the reset.
  c->Add(2);
  EXPECT_EQ(reg.GetCounter("r/c")->Get(), 2u);
}

}  // namespace
}  // namespace pup::obs
