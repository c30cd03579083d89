// Tests for src/obs/exporter.h: the live telemetry exporter (a `metrics`
// counter event in the open trace file per tick) and the MetricsRegistry
// snapshot/delta semantics it publishes. Suite names start with `Exporter`
// so the TSan CI job picks the concurrency tests up via its --gtest_filter.
//
// The exporter writes into the process-wide tracer, so every test opens it
// against a fresh temp file and closes it before leaving.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "core/isum.h"
#include "obs/exporter.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tools/tracecat/tracecat.h"
#include "workload/workload_factory.h"

namespace isum::obs {
namespace {

constexpr uint64_t kPeriod = MetricsExporter::kPeriodNanos;

std::string OpenTrace(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(Tracer::Global().Open(path, "exporter_test"));
  return path;
}

std::string ReadAll(const std::string& path) {
  StatusOr<std::string> content = ReadFileToString(path);
  EXPECT_TRUE(content.ok()) << content.status().ToString();
  return content.ok() ? *content : std::string();
}

/// The file's metrics ticks, in file order.
std::vector<tracecat::MetricsTick> Ticks(const std::string& content) {
  std::vector<tracecat::MetricsTick> ticks;
  // Every prefix that ends after a tick's line has that tick last.
  size_t pos = 0;
  while ((pos = content.find("\"name\":\"metrics\"", pos)) !=
         std::string::npos) {
    const size_t end = content.find('\n', pos);
    auto tick = tracecat::LastMetrics(content.substr(0, end));
    EXPECT_TRUE(tick.ok()) << tick.status().ToString();
    if (tick.ok()) ticks.push_back(std::move(tick).value());
    pos = end;
  }
  return ticks;
}

/// `tick` carries exactly `snapshot`: every counter and gauge by name, each
/// histogram as .count/.sum/.p50/.p95/.p99.
void ExpectTickEquals(const tracecat::MetricsTick& tick,
                      const MetricsSnapshot& snapshot) {
  size_t expected = 0;
  auto expect = [&](const std::string& name, double value) {
    ++expected;
    const JsonValue* found = tick.values.Find(name);
    ASSERT_NE(found, nullptr) << name;
    EXPECT_EQ(found->number, value) << name;
  };
  for (const auto& [name, value] : snapshot.counters) {
    expect(name, static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) expect(name, value);
  for (const HistogramSample& h : snapshot.histograms) {
    expect(h.name + ".count", static_cast<double>(h.count));
    expect(h.name + ".sum", static_cast<double>(h.sum));
    expect(h.name + ".p50", h.p50);
    expect(h.name + ".p95", h.p95);
    expect(h.name + ".p99", h.p99);
  }
  EXPECT_EQ(tick.values.members.size(), expected);
}

class ExporterTest : public testing::Test {
 protected:
  void TearDown() override {
    Tracer::Global().Close();
    InstallAmbientBudget(TimeBudget());
  }
};

using ExporterSnapshot = ExporterTest;
using ExporterBudget = ExporterTest;

TEST_F(ExporterSnapshot, WritesFileAndRoundTripsThroughTracecat) {
  MetricsRegistry registry;
  registry.GetCounter("whatif.optimizer_calls")->Add(123);
  registry.GetGauge("pool.size")->Set(4.5);
  registry.GetHistogram("whatif.optimize_nanos")->Observe(1000);

  const std::string path = OpenTrace("exporter_snapshot.json");
  MetricsExporter exporter(&registry);
  ASSERT_TRUE(exporter.Start().ok());
  exporter.Stop();
  // Startup tick + shutdown tick; >= 1 because Stop() can beat the worker's
  // first iteration.
  EXPECT_GE(exporter.ticks_written(), 1u);
  ASSERT_TRUE(Tracer::Global().Close().ok);

  const std::string content = ReadAll(path);
  EXPECT_EQ(Ticks(content).size(), exporter.ticks_written());
  auto tick = tracecat::LastMetrics(content);
  ASSERT_TRUE(tick.ok()) << tick.status().ToString();
  // The final tick is the registry as it was left, process gauges and the
  // budget gauge (-1 = unlimited) included.
  ExpectTickEquals(tick.value(), registry.Snapshot());
  EXPECT_EQ(tick->Value("whatif.optimizer_calls"), 123.0);
  EXPECT_EQ(tick->Value("pool.size"), 4.5);
  EXPECT_EQ(tick->Value("whatif.optimize_nanos.count"), 1.0);
  EXPECT_EQ(tick->Value("budget.remaining_seconds"), -1.0);
  EXPECT_GT(tick->Value("process.peak_rss_bytes"), 0.0);
  // The spans still read, and the decision-event checker sees no events.
  EXPECT_TRUE(tracecat::ParseChromeTrace(content).ok());
  auto journal = tracecat::ParseJournal(content);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_TRUE(journal->events.empty());
  EXPECT_TRUE(tracecat::CheckJournal(journal.value()).ok());
}

TEST_F(ExporterSnapshot, SlowRunWritesATickEveryPeriod) {
  MetricsRegistry registry;
  Counter* progress = registry.GetCounter("test.progress");
  const std::string path = OpenTrace("exporter_slow.json");
  MetricsExporter exporter(&registry);
  ASSERT_TRUE(exporter.Start().ok());
  // The worker ticks at once and then once per period: wait for the
  // second periodic tick (about one period in).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(5 * kPeriod);
  while (exporter.ticks_written() < 2 &&
         std::chrono::steady_clock::now() < give_up) {
    progress->Add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  exporter.Stop();
  ASSERT_TRUE(Tracer::Global().Close().ok);

  const std::vector<tracecat::MetricsTick> ticks = Ticks(ReadAll(path));
  ASSERT_GE(ticks.size(), 3u);
  EXPECT_EQ(ticks.size(), exporter.ticks_written());
  for (size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_GE(ticks[i].t_us, ticks[i - 1].t_us);
    EXPECT_GE(ticks[i].Value("test.progress"),
              ticks[i - 1].Value("test.progress"));
  }
  // A period apart, on the tracer clock.
  EXPECT_GE(ticks[1].t_us - ticks[0].t_us, 0.9 * kPeriod / 1e3);
  ExpectTickEquals(ticks.back(), registry.Snapshot());
}

TEST_F(ExporterSnapshot, TicksWhilePoolThreadsEmitDecisionEvents) {
  // Ticks and decision events share the file and its mutex: each must land
  // as one whole line, with the decision events' seq still dense.
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  const std::string path = OpenTrace("exporter_concurrent.json");
  MetricsExporter exporter(&MetricsRegistry::Global());
  ASSERT_TRUE(exporter.Start().ok());
  core::Isum isum(env.workload.get());
  EXPECT_EQ(isum.Compress(4).entries.size(), 4u);

  // The exporter ticks once a second; a second writer on the same path
  // ticks back to back so the writes really interleave.
  std::atomic<bool> done{false};
  std::thread ticker([&] {
    for (int i = 0; i < 200 && !done.load(std::memory_order_relaxed); ++i) {
      Tracer::Global().WriteMetrics(MetricsRegistry::Global().Snapshot());
    }
  });
  {
    ThreadPool pool(4);
    pool.ParallelFor(400, [](size_t i) {
      journal::Retry("whatif.cost", i + 1, 1000);
      journal::Fault("whatif.cost", "unavailable");
    });
  }
  done.store(true, std::memory_order_relaxed);
  ticker.join();
  exporter.Stop();
  ASSERT_TRUE(Tracer::Global().Close().ok);

  const std::string content = ReadAll(path);
  EXPECT_TRUE(tracecat::ParseChromeTrace(content).ok());
  auto journal = tracecat::ParseJournal(content);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  auto checked = tracecat::CheckJournal(journal.value());
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(checked.value(), 6u + 800u);  // begin, 4 selects, end; pool
  EXPECT_TRUE(tracecat::LastMetrics(content).ok());
}

TEST_F(ExporterBudget, ExpiredAmbientBudgetStopsTheWorker) {
  // Once the ambient budget expires, the worker writes one final tick (with
  // the gauge at 0) and exits on its own; Stop() then only joins and
  // writes the shutdown tick.
  InstallAmbientBudget(TimeBudget::After(0.0));
  MetricsRegistry registry;
  const std::string path = OpenTrace("exporter_budget.json");
  MetricsExporter exporter(&registry);
  ASSERT_TRUE(exporter.Start().ok());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (exporter.ticks_written() < 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A live worker would tick again within a period.
  std::this_thread::sleep_for(std::chrono::nanoseconds(kPeriod + kPeriod / 4));
  EXPECT_EQ(exporter.ticks_written(), 1u);
  exporter.Stop();
  EXPECT_EQ(exporter.ticks_written(), 2u);
  ASSERT_TRUE(Tracer::Global().Close().ok);

  const std::vector<tracecat::MetricsTick> ticks = Ticks(ReadAll(path));
  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_EQ(ticks[0].Value("budget.remaining_seconds"), 0.0);
  EXPECT_EQ(ticks[1].Value("budget.remaining_seconds"), 0.0);
}

TEST(ExporterRegistry, SnapshotAndDeltaUnderConcurrentWriters) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("stress.counter");
  Histogram* histogram = registry.GetHistogram("stress.histogram");
  const MetricsSnapshot before = registry.Snapshot();

  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::atomic<bool> done{false};
  // Reader thread: snapshots concurrently with the writers; every observed
  // value must be a valid intermediate (never above the final total).
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const MetricsSnapshot s = registry.Snapshot();
      EXPECT_LE(s.CounterValue("stress.counter"), kThreads * kPerThread);
      EXPECT_LE(s.HistogramCount("stress.histogram"),
                kThreads * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        histogram->Observe(100);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const MetricsSnapshot after = registry.Snapshot();
  const MetricsSnapshot delta = MetricsSnapshot::Delta(before, after);
  EXPECT_EQ(delta.CounterValue("stress.counter"), kThreads * kPerThread);
  EXPECT_EQ(delta.HistogramCount("stress.histogram"), kThreads * kPerThread);
}

}  // namespace
}  // namespace isum::obs
