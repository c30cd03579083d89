// Tests for src/obs: metrics instruments, registry snapshots/deltas, the
// scoped-span tracer (driven by a deterministic fake clock), and the
// Chrome-trace exporter and the metrics counter event. Suite names start
// with `Obs` so the TSan CI job picks the concurrency tests up via its
// --gtest_filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace isum::obs {
namespace {

TEST(ObsCounter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsCounter, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetValueReset) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.25);
  EXPECT_EQ(g.Value(), 3.25);
  g.Reset();
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(ObsHistogram, CountAndSumAreExact) {
  Histogram h;
  uint64_t want_sum = 0;
  for (uint64_t v = 0; v < 1000; ++v) {
    h.Observe(v);
    want_sum += v;
  }
  EXPECT_EQ(h.TotalCount(), 1000u);
  EXPECT_EQ(h.Sum(), want_sum);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
}

TEST(ObsHistogram, BucketIndexIsMonotonicAndMidpointIsClose) {
  size_t prev = 0;
  for (uint64_t v = 0; v < 100000; ++v) {
    const size_t index = Histogram::BucketIndex(v);
    EXPECT_GE(index, prev) << "v=" << v;
    prev = index;
    if (v >= Histogram::kSubBuckets) {
      // Sub-bucketed power-of-two ranges bound the relative error.
      const double mid = Histogram::BucketMidpoint(index);
      EXPECT_NEAR(mid, static_cast<double>(v), 0.13 * static_cast<double>(v))
          << "v=" << v;
    }
  }
}

TEST(ObsHistogram, QuantilesTrackSortedReference) {
  Histogram h;
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 5000; ++i) {
    // Deterministic spread over ~[1, 1e6] (multiplicative hash, no RNG).
    const uint64_t v = (i * 2654435761u) % 1000000 + 1;
    values.push_back(v);
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.95, 0.99}) {
    const double reference = static_cast<double>(
        values[static_cast<size_t>(q * (values.size() - 1))]);
    const double estimate = h.Quantile(q);
    // Log-scale buckets have <= ~12.5% relative width; allow slack on top.
    EXPECT_NEAR(estimate, reference, 0.2 * reference) << "q=" << q;
  }
}

TEST(ObsHistogram, ConcurrentObservesAreExact) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Observe(i % 100 + 1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.TotalCount(), kThreads * kPerThread);
}

TEST(ObsRegistry, ReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("a.calls");
  Counter* c2 = registry.GetCounter("a.calls");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.GetCounter("b.calls"), c1);
  EXPECT_EQ(registry.GetHistogram("a.nanos"),
            registry.GetHistogram("a.nanos"));
}

TEST(ObsRegistry, SnapshotSortsByNameAndReadsValues) {
  MetricsRegistry registry;
  registry.GetCounter("z.last")->Add(7);
  registry.GetCounter("a.first")->Add(3);
  registry.GetGauge("pool.workers")->Set(4.0);
  registry.GetHistogram("lat")->Observe(100);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "z.last");
  EXPECT_EQ(snap.CounterValue("z.last"), 7u);
  EXPECT_EQ(snap.CounterValue("missing"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 4.0);
  EXPECT_EQ(snap.HistogramCount("lat"), 1u);
}

TEST(ObsRegistry, DeltaSubtractsCountersAndRecomputesQuantiles) {
  MetricsRegistry registry;
  Counter* calls = registry.GetCounter("calls");
  Histogram* lat = registry.GetHistogram("lat");
  calls->Add(5);
  lat->Observe(1000);
  const MetricsSnapshot before = registry.Snapshot();
  calls->Add(7);
  for (int i = 0; i < 100; ++i) lat->Observe(64);
  registry.GetGauge("workers")->Set(8.0);
  const MetricsSnapshot after = registry.Snapshot();

  const MetricsSnapshot delta = MetricsSnapshot::Delta(before, after);
  EXPECT_EQ(delta.CounterValue("calls"), 7u);
  EXPECT_EQ(delta.HistogramCount("lat"), 100u);
  // The single 1000ns observation belongs to `before`; the window median
  // must reflect only the 64ns observations.
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_NEAR(delta.histograms[0].p50, 64.0, 64.0 * 0.2);
  // Gauges keep the `after` value.
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_EQ(delta.gauges[0].second, 8.0);
}

TEST(ObsRegistry, ResetAllZeroesButKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("calls");
  c->Add(9);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  c->Add(1);
  EXPECT_EQ(registry.Snapshot().CounterValue("calls"), 1u);
}

TEST(ObsRegistry, ConcurrentGetAndAdd) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("shared")->Add();
        registry.GetHistogram("lat")->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.Snapshot().CounterValue("shared"), kThreads * 1000u);
}

// --- tracer -----------------------------------------------------------

/// Deterministic span clock: 1000, 2000, 3000, ... nanoseconds.
std::atomic<uint64_t> fake_clock_ticks{0};
uint64_t FakeClock() {
  return (fake_clock_ticks.fetch_add(1, std::memory_order_relaxed) + 1) *
         1000;
}

class ObsTracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fake_clock_ticks.store(0);
    Tracer::Global().SetClockForTest(&FakeClock);
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Drain();
    Tracer::Global().SetClockForTest(nullptr);
  }
};

TEST_F(ObsTracerTest, RecordsNestedSpansWithFakeClock) {
  Tracer& tracer = Tracer::Global();
  tracer.SetCurrentThreadName("main");
  tracer.Enable();  // session start = 1000
  {
    ISUM_TRACE_SPAN("outer");  // begin = 2000
    {
      ISUM_TRACE_SPAN("inner");  // begin = 3000, end = 4000
    }
  }  // end = 5000
  tracer.Disable();
  const TraceDump dump = tracer.Drain();

  ASSERT_EQ(dump.spans.size(), 2u);
  const SpanRecord& outer = dump.spans[0];
  const SpanRecord& inner = dump.spans[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(outer.start_nanos, 1000u);
  EXPECT_EQ(outer.dur_nanos, 3000u);
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.start_nanos, 2000u);
  EXPECT_EQ(inner.dur_nanos, 1000u);
  EXPECT_EQ(outer.tid, inner.tid);
  ASSERT_LT(outer.tid, dump.thread_names.size());
  EXPECT_EQ(dump.thread_names[outer.tid], "main");
}

TEST_F(ObsTracerTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  {
    ISUM_TRACE_SPAN("ghost");
  }
  EXPECT_TRUE(tracer.Drain().spans.empty());
}

TEST_F(ObsTracerTest, EnableStartsAFreshSession) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  {
    ISUM_TRACE_SPAN("first-session");
  }
  tracer.Enable();  // clears the buffered span
  {
    ISUM_TRACE_SPAN("second-session");
  }
  tracer.Disable();
  const TraceDump dump = tracer.Drain();
  ASSERT_EQ(dump.spans.size(), 1u);
  EXPECT_STREQ(dump.spans[0].name, "second-session");
}

TEST_F(ObsTracerTest, ConcurrentSpansFromWorkerThreads) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ISUM_TRACE_SPAN("worker-span");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tracer.Disable();
  const TraceDump dump = tracer.Drain();
  EXPECT_EQ(dump.spans.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  // Drain output is sorted by start time.
  for (size_t i = 1; i < dump.spans.size(); ++i) {
    EXPECT_LE(dump.spans[i - 1].start_nanos, dump.spans[i].start_nanos);
  }
}

TEST_F(ObsTracerTest, SpanArgsAreRecordedTypedAndBounded) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  {
    ISUM_TRACE_SPAN_VAR(span, "compress/greedy-pick");
    span.Arg("k", 50)
        .Arg("algorithm", "summary-features")
        .Arg("ratio", 0.5)
        .Arg("threads", uint64_t{8})
        .Arg("dropped", 99);  // fifth arg: past kMaxArgs, silently dropped
  }
  tracer.Disable();
  const TraceDump dump = tracer.Drain();

  ASSERT_EQ(dump.spans.size(), 1u);
  const SpanRecord& span = dump.spans[0];
  ASSERT_EQ(span.num_args, SpanRecord::kMaxArgs);
  EXPECT_STREQ(span.args[0].key, "k");
  EXPECT_EQ(span.args[0].kind, SpanArg::Kind::kInt);
  EXPECT_EQ(span.args[0].int_value, 50);
  EXPECT_STREQ(span.args[1].key, "algorithm");
  EXPECT_EQ(span.args[1].kind, SpanArg::Kind::kString);
  EXPECT_STREQ(span.args[1].string_value, "summary-features");
  EXPECT_STREQ(span.args[2].key, "ratio");
  EXPECT_EQ(span.args[2].kind, SpanArg::Kind::kDouble);
  EXPECT_EQ(span.args[2].double_value, 0.5);
  EXPECT_STREQ(span.args[3].key, "threads");
  EXPECT_EQ(span.args[3].kind, SpanArg::Kind::kInt);
  EXPECT_EQ(span.args[3].int_value, 8);
}

TEST_F(ObsTracerTest, SpanArgsAreDroppedWhenNotRecording) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  {
    ISUM_TRACE_SPAN_VAR(span, "ghost");
    span.Arg("k", 50).Arg("label", "unused");  // must be a no-op, not a crash
  }
  EXPECT_TRUE(tracer.Drain().spans.empty());
}

// --- exporters --------------------------------------------------------

TEST(ObsExport, ChromeTraceJsonGoldenShape) {
  TraceDump dump;
  dump.thread_names = {"main", ""};
  dump.spans.push_back(SpanRecord{"compress/total", 0, 0, 1500, 2500500});
  dump.spans.push_back(SpanRecord{"whatif/optimize", 1, 1, 2000, 999});
  const std::string want =
      "[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"thread-1\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"compress/total\","
      "\"cat\":\"isum\",\"ts\":1.500,\"dur\":2500.500,"
      "\"args\":{\"depth\":0}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"whatif/optimize\","
      "\"cat\":\"isum\",\"ts\":2.000,\"dur\":0.999,"
      "\"args\":{\"depth\":1}}\n"
      "]\n";
  EXPECT_EQ(ChromeTraceJson(dump), want);
}

TEST(ObsExport, SpanArgsRenderInBothExporters) {
  TraceDump dump;
  dump.thread_names = {"main"};
  SpanRecord span{"compress/greedy-pick", 0, 0, 1500, 2500500};
  span.num_args = 3;
  span.args[0] = SpanArg{"k", SpanArg::Kind::kInt, 50, 0.0, nullptr};
  span.args[1] =
      SpanArg{"algorithm", SpanArg::Kind::kString, 0, 0.0, "summary-features"};
  span.args[2] = SpanArg{"ratio", SpanArg::Kind::kDouble, 0, 0.5, nullptr};
  dump.spans.push_back(span);

  // Chrome trace: args join the object the "depth" field opens.
  EXPECT_EQ(ChromeTraceJson(dump),
            "[\n"
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"main\"}},\n"
            "{\"ph\":\"X\",\"pid\":1,\"tid\":0,"
            "\"name\":\"compress/greedy-pick\","
            "\"cat\":\"isum\",\"ts\":1.500,\"dur\":2500.500,"
            "\"args\":{\"depth\":0,\"k\":50,"
            "\"algorithm\":\"summary-features\",\"ratio\":0.5}}\n"
            "]\n");
}

TEST_F(ObsTracerTest, MetricsEventCoversAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.GetCounter("whatif.optimizer_calls")->Add(12);
  registry.GetGauge("threadpool.workers")->Set(4.0);
  registry.GetGauge("budget.remaining_seconds")->Set(0.1);
  registry.GetGauge("not.a.number")->Set(std::nan(""));
  Histogram* lat = registry.GetHistogram("whatif.optimize_nanos");
  for (int i = 0; i < 10; ++i) lat->Observe(1000);

  Tracer& tracer = Tracer::Global();
  EXPECT_FALSE(tracer.WriteMetrics(registry.Snapshot()));  // no file open
  const std::string path = testing::TempDir() + "/obs_metrics_event.json";
  ASSERT_TRUE(tracer.Open(path, "unit"));  // session start = 1000
  EXPECT_TRUE(tracer.WriteMetrics(registry.Snapshot()));  // ts = 2000 ns
  EXPECT_TRUE(tracer.Close().ok);

  const StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  // One line; every instrument kind; doubles exact and shortest; the
  // non-finite gauge left out (JSON has no NaN).
  EXPECT_NE(content->find("\n{\"ph\":\"C\",\"pid\":1,\"tid\":"),
            std::string::npos);
  EXPECT_NE(content->find(
                ",\"name\":\"metrics\",\"ts\":1.000,\"args\":{\"whatif.optimizer_calls\":12,"
                "\"budget.remaining_seconds\":0.1,"
                "\"threadpool.workers\":4,"
                "\"whatif.optimize_nanos.count\":10,"
                "\"whatif.optimize_nanos.sum\":10000,"
                "\"whatif.optimize_nanos.p50\":"),
            std::string::npos)
      << *content;
  EXPECT_EQ(content->find("not.a.number"), std::string::npos);
}

}  // namespace
}  // namespace isum::obs
