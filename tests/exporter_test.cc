// Tests for src/obs/exporter.h: the live telemetry exporter (periodic
// metrics-JSONL snapshot files) and the MetricsRegistry snapshot/delta
// semantics it publishes. Suite
// names start with `Exporter` so the TSan CI job picks the concurrency
// tests up via its --gtest_filter.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "tools/tracecat/tracecat.h"

namespace isum::obs {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double MetricValue(const std::vector<tracecat::MetricLine>& metrics,
                   const char* type, const char* name) {
  for (const auto& m : metrics) {
    if (m.type == type && m.name == name) {
      return m.type == "histogram" ? static_cast<double>(m.count) : m.value;
    }
  }
  ADD_FAILURE() << "metric not found: " << type << " " << name;
  return 0.0;
}

TEST(ExporterSnapshot, WritesFileAndRoundTripsThroughTracecat) {
  MetricsRegistry registry;
  registry.GetCounter("whatif.optimizer_calls")->Add(123);
  registry.GetGauge("pool.size")->Set(4.5);
  registry.GetHistogram("whatif.optimize_nanos")->Observe(1000);

  const std::string path = TempPath("exporter_snapshot.jsonl");
  MetricsExporterOptions options;
  options.snapshot_path = path;
  options.period_nanos = 3'600'000'000'000ull;  // only the startup tick
  MetricsExporter exporter(&registry, options);
  ASSERT_TRUE(exporter.Start().ok());
  exporter.Stop();
  // Startup tick + shutdown tick; >= 1 because Stop() can beat the worker's
  // first iteration (the shutdown tick alone still yields a complete file).
  EXPECT_GE(exporter.snapshots_written(), 1u);

  auto metrics = tracecat::ParseMetricsJsonl(ReadAll(path));
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(
      MetricValue(metrics.value(), "counter", "whatif.optimizer_calls"),
      123.0);
  EXPECT_EQ(MetricValue(metrics.value(), "gauge", "pool.size"), 4.5);
  // Histograms report their observation count.
  EXPECT_EQ(
      MetricValue(metrics.value(), "histogram", "whatif.optimize_nanos"),
      1.0);
  // The exporter publishes the ambient budget every tick (-1 = unlimited).
  EXPECT_EQ(
      MetricValue(metrics.value(), "gauge", "budget.remaining_seconds"),
      -1.0);
}

TEST(ExporterSnapshot, RewritesAreAtomicForConcurrentReaders) {
  // A `tracecat watch` poll races the worker's rewrites; with tmp + rename
  // every read sees a whole snapshot, never a truncated or half-written one.
  MetricsRegistry registry;
  for (int i = 0; i < 200; ++i) {
    registry.GetCounter("atomic.counter." + std::to_string(i))->Add(i);
  }
  const std::string path = TempPath("exporter_atomic.jsonl");
  std::remove(path.c_str());
  MetricsExporterOptions options;
  options.snapshot_path = path;
  options.period_nanos = 1'000'000;  // 1ms: rewrite as often as possible
  MetricsExporter exporter(&registry, options);
  ASSERT_TRUE(exporter.Start().ok());

  int reads = 0;
  int parse_errors = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    // Once the first snapshot is published the file must always be whole.
    if (exporter.snapshots_written() == 0) continue;
    auto metrics = tracecat::ParseMetricsJsonl(ReadAll(path));
    ++reads;
    if (!metrics.ok() || metrics->size() < 200) ++parse_errors;
  }
  exporter.Stop();
  EXPECT_GT(reads, 0);
  EXPECT_EQ(parse_errors, 0) << "of " << reads << " reads";
  EXPECT_GT(exporter.snapshots_written(), 1u);

  // The rename consumed every temporary file.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
}

TEST(ExporterBudget, ExpiredAmbientBudgetStopsTheWorker) {
  // Once the ambient budget expires, the worker writes one final snapshot
  // (with the gauge at 0) and exits on its own; Stop() then only joins.
  InstallAmbientBudget(TimeBudget::After(0.0));
  MetricsRegistry registry;
  const std::string path = TempPath("exporter_budget.jsonl");
  MetricsExporterOptions options;
  options.snapshot_path = path;
  options.period_nanos = 1'000'000;  // 1ms: would write thousands if alive
  MetricsExporter exporter(&registry, options);
  ASSERT_TRUE(exporter.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t after_expiry = exporter.snapshots_written();
  EXPECT_LE(after_expiry, 2u);  // the budget-expired tick, not one per ms
  exporter.Stop();
  InstallAmbientBudget(TimeBudget());  // restore unlimited for other tests

  auto metrics = tracecat::ParseMetricsJsonl(ReadAll(path));
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(
      MetricValue(metrics.value(), "gauge", "budget.remaining_seconds"), 0.0);
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
