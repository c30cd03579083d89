// Tests for src/obs/journal.h: the isum-events-v1 decision-provenance
// stream. Suite names start with `Journal` so the TSan CI job picks the
// concurrency tests up via its --gtest_filter.
//
// The journal is a process-wide singleton, so every test opens it against a
// fresh temp file and closes it (restoring the real clock) before leaving.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/jsonl.h"
#include "core/isum.h"
#include "obs/journal.h"
#include "workload/workload_factory.h"

namespace isum::obs {
namespace {

/// Deterministic journal clock: advances 1ms per reading.
std::atomic<uint64_t> g_fake_nanos{0};
uint64_t FakeClock() {
  return g_fake_nanos.fetch_add(1'000'000, std::memory_order_relaxed) +
         1'000'000;
}
/// Settable journal clock: returns whatever the test last stored.
std::atomic<uint64_t> g_held_nanos{0};
uint64_t HeldClock() { return g_held_nanos.load(std::memory_order_relaxed); }

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// The journal file, one parsed JSON object per line.
std::vector<JsonValue> ReadEvents(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto events = ParseJsonLines(buffer.str());
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  return events.ok() ? std::move(events).value() : std::vector<JsonValue>();
}

class JournalTest : public testing::Test {
 protected:
  void TearDown() override {
    Journal::Global().Close();
    Journal::Global().SetClockForTest(nullptr);
  }
};

TEST_F(JournalTest, LifecycleIsWellFormed) {
  const std::string path = TempPath("journal_lifecycle.jsonl");
  ASSERT_TRUE(Journal::Global().Open(path, "journal_test"));
  EXPECT_TRUE(Journal::Global().enabled());

  Journal& j = Journal::Global();
  j.CompressBegin(100, 10, "summary-features", 1);
  j.SelectRound(0, 42, 0.5, 0.25, 0, 100);
  j.FeatureReset(7);
  const size_t order[] = {42};
  j.CompressEnd(1, SelectionOrderHash(order, 1), 0.5, "complete");
  EXPECT_EQ(j.events_written(), 5u);  // journal_begin + the four above
  j.Close();
  EXPECT_FALSE(j.enabled());

  const std::vector<JsonValue> lines = ReadEvents(path);
  ASSERT_EQ(lines.size(), 6u);
  const char* expected_events[] = {"journal_begin", "compress_begin",
                                   "select",        "feature_reset",
                                   "compress_end",  "journal_end"};
  for (size_t i = 0; i < lines.size(); ++i) {
    auto event = lines[i].String("event");
    ASSERT_TRUE(event.ok()) << "line " << i;
    EXPECT_EQ(event.value(), expected_events[i]);
    auto seq = lines[i].Number("seq");
    ASSERT_TRUE(seq.ok()) << "line " << i;
    EXPECT_EQ(seq.value(), static_cast<double>(i)) << "seq must be dense";
    EXPECT_TRUE(lines[i].Has("t_us")) << "line " << i;
  }
  EXPECT_EQ(lines[0].String("schema").value(), "isum-events-v1");
  EXPECT_EQ(lines[0].String("label").value(), "journal_test");
  EXPECT_EQ(lines[2].Number("query").value(), 42.0);
  EXPECT_EQ(lines[2].Number("gap").value(), 0.25);
  EXPECT_EQ(lines[4].String("stop_reason").value(), "complete");
}

TEST_F(JournalTest, FakeClockTimestampsAreDeterministic) {
  g_fake_nanos.store(0, std::memory_order_relaxed);
  Journal::Global().SetClockForTest(&FakeClock);
  const std::string path = TempPath("journal_clock.jsonl");
  ASSERT_TRUE(Journal::Global().Open(path, "clock"));
  Journal::Global().FeatureReset(1);
  Journal::Global().FeatureReset(2);
  Journal::Global().Close();

  // One clock reading fixes the origin in Open(); each emitted line takes
  // exactly one more, so consecutive t_us differ by exactly 1000us.
  const std::vector<JsonValue> lines = ReadEvents(path);
  ASSERT_EQ(lines.size(), 4u);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].Number("t_us").value(),
              1000.0 * static_cast<double>(i + 1));
  }
}

TEST_F(JournalTest, SelectionOrderHashGoldens) {
  // FNV-1a over the selection order; these goldens pin the exact constants
  // (bench baselines and journal compress_end events both persist hashes,
  // so the function can never drift silently).
  EXPECT_EQ(SelectionOrderHash(nullptr, 0), 0x14650fb0739d0383ull);
  const size_t one[] = {7};
  EXPECT_EQ(SelectionOrderHash(one, 1), 0x44bd2cd473ccf94cull);
  const size_t many[] = {3, 1, 4, 1, 5};
  EXPECT_EQ(SelectionOrderHash(many, 5), 0x10f5bb4db77e297bull);
  // Order-sensitive: a permutation is a different selection.
  const size_t swapped[] = {1, 3, 4, 1, 5};
  EXPECT_NE(SelectionOrderHash(many, 5), SelectionOrderHash(swapped, 5));
}

TEST_F(JournalTest, OpenFailureLeavesJournalDisabled) {
  EXPECT_FALSE(Journal::Global().Open(
      testing::TempDir() + "/no_such_dir/journal.jsonl", "x"));
  EXPECT_FALSE(Journal::Global().enabled());
  Journal::Global().FeatureReset(1);  // must be a no-op, not a crash
}

TEST_F(JournalTest, BudgetTickIsRateLimited) {
  g_held_nanos.store(1'000'000'000, std::memory_order_relaxed);
  Journal::Global().SetClockForTest(&HeldClock);
  const std::string path = TempPath("journal_tick.jsonl");
  ASSERT_TRUE(Journal::Global().Open(path, "tick"));

  Journal::Global().BudgetTick(10.0);  // first tick always emits
  Journal::Global().BudgetTick(9.9);   // same instant: suppressed
  g_held_nanos.fetch_add(100'000'000, std::memory_order_relaxed);  // +100ms
  Journal::Global().BudgetTick(9.8);  // inside the 250ms window: suppressed
  g_held_nanos.fetch_add(200'000'000, std::memory_order_relaxed);  // +300ms
  Journal::Global().BudgetTick(9.7);  // window elapsed: emits
  Journal::Global().Close();

  std::vector<double> remaining;
  for (const JsonValue& line : ReadEvents(path)) {
    if (line.String("event").value() == "budget_tick") {
      remaining.push_back(line.Number("remaining_s").value());
    }
  }
  EXPECT_EQ(remaining, (std::vector<double>{10.0, 9.7}));
}

TEST_F(JournalTest, BudgetStopDeduplicatesConsecutiveReasons) {
  const std::string path = TempPath("journal_stop.jsonl");
  ASSERT_TRUE(Journal::Global().Open(path, "stop"));
  const char* deadline = StopReasonToString(StopReason::kDeadline);
  const char* cancelled = StopReasonToString(StopReason::kCancelled);
  Journal::Global().BudgetStop(deadline);
  Journal::Global().BudgetStop(deadline);  // repeat poll: suppressed
  Journal::Global().BudgetStop(cancelled);
  Journal::Global().Close();

  std::vector<std::string> reasons;
  for (const JsonValue& line : ReadEvents(path)) {
    if (line.String("event").value() == "budget_stop") {
      reasons.push_back(line.String("reason").value());
    }
  }
  EXPECT_EQ(reasons, (std::vector<std::string>{"deadline", "cancelled"}));
}

TEST_F(JournalTest, AbnormalStopReasonFlushesEagerly) {
  const std::string path = TempPath("journal_flush.jsonl");
  ASSERT_TRUE(Journal::Global().Open(path, "flush"));
  Journal::Global().CompressBegin(10, 5, "summary-features", 1);
  Journal::Global().SelectRound(0, 3, 1.0, -1.0, 0, 10);
  const size_t order[] = {3};
  Journal::Global().CompressEnd(1, SelectionOrderHash(order, 1), 1.0,
                                "deadline");
  // No Close(), no Flush(): the abnormal stop_reason alone must have pushed
  // every buffered line to disk (a deadline-killed run leaves a complete
  // artifact even if the process dies before the journal is closed).
  const std::vector<JsonValue> lines = ReadEvents(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines.back().String("event").value(), "compress_end");
  EXPECT_EQ(lines.back().String("stop_reason").value(),
            "deadline");
}

TEST_F(JournalTest, InjectedDeadlineRegressionFlushesSelection) {
  // End-to-end regression: a selection killed by an (already expired)
  // injected deadline must leave its compress block on disk *before* the
  // journal is closed — the eager flush on abnormal stop_reason is the only
  // thing that guarantees it.
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);

  const std::string path = TempPath("journal_deadline.jsonl");
  ASSERT_TRUE(Journal::Global().Open(path, "deadline_regression"));
  core::IsumOptions options;
  options.budget = TimeBudget::After(0.0);  // expires immediately
  core::Isum isum(env.workload.get(), options);
  const workload::CompressedWorkload compressed = isum.Compress(5);
  EXPECT_EQ(compressed.stop_reason, StopReason::kDeadline);

  bool found_abnormal_end = false;
  for (const JsonValue& line : ReadEvents(path)) {
    if (line.String("event").value() == "compress_end") {
      EXPECT_EQ(line.String("stop_reason").value(), "deadline");
      found_abnormal_end = true;
    }
  }
  EXPECT_TRUE(found_abnormal_end)
      << "compress_end must reach disk without Close()";
}

TEST_F(JournalTest, ConcurrentEmittersKeepSeqDense) {
  const std::string path = TempPath("journal_concurrent.jsonl");
  ASSERT_TRUE(Journal::Global().Open(path, "concurrent"));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        Journal::Global().SelectRound(static_cast<uint64_t>(i),
                                      static_cast<uint64_t>(t), 1.0, 0.5, 0,
                                      10);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Journal::Global().Close();

  const std::vector<JsonValue> lines = ReadEvents(path);
  ASSERT_EQ(lines.size(), 2u + kThreads * kPerThread);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].Number("seq").value(),
              static_cast<double>(i));
  }
}

}  // namespace
}  // namespace isum::obs
