// Tests for src/obs/journal.h: the decision events written as instant
// events into the tracer's --trace= file, read back with tracecat's
// ParseJournal. Suite names start with `Journal` so the TSan CI job picks
// the concurrency tests up via its --gtest_filter.
//
// The tracer is a process-wide singleton, so every test opens it against a
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
#include "obs/trace.h"
#include "tools/tracecat/tracecat.h"
#include "workload/workload_factory.h"

namespace isum::obs {
namespace {

/// Deterministic tracer clock: advances 1ms per reading.
std::atomic<uint64_t> g_fake_nanos{0};
uint64_t FakeClock() {
  return g_fake_nanos.fetch_add(1'000'000, std::memory_order_relaxed) +
         1'000'000;
}
/// Settable tracer clock: returns whatever the test last stored.
std::atomic<uint64_t> g_held_nanos{0};
uint64_t HeldClock() { return g_held_nanos.load(std::memory_order_relaxed); }

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The decision events on disk right now, read the way `tracecat explain`
/// reads them (so an unclosed file works too).
tracecat::Journal ReadJournal(const std::string& path) {
  auto journal = tracecat::ParseJournal(ReadAll(path));
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  return journal.ok() ? std::move(journal).value() : tracecat::Journal();
}

std::vector<std::string> EventNames(const tracecat::Journal& journal) {
  std::vector<std::string> names;
  for (const tracecat::JournalEvent& e : journal.events) {
    names.push_back(e.event);
  }
  return names;
}

class JournalTest : public testing::Test {
 protected:
  void TearDown() override {
    Tracer::Global().Close();
    Tracer::Global().SetClockForTest(nullptr);
  }
};

TEST_F(JournalTest, LifecycleIsWellFormed) {
  const std::string path = TempPath("journal_lifecycle.json");
  ASSERT_TRUE(Tracer::Global().Open(path, "journal_test"));
  EXPECT_TRUE(journal::Enabled());
  EXPECT_TRUE(Tracer::Global().enabled()) << "a file session records spans";

  journal::CompressBegin(100, 10, "summary-features", 1);
  journal::SelectRound(0, 42, 0.5, 0.25, 0, 100);
  journal::FeatureReset(7);
  const size_t order[] = {42};
  journal::CompressEnd(1, SelectionOrderHash(order, 1), 0.5, "complete");
  const TraceFileStats stats = Tracer::Global().Close();
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.instants, 4u);
  EXPECT_FALSE(journal::Enabled());
  EXPECT_FALSE(Tracer::Global().enabled());

  // A closed file is one JSON array: the process_name header first, then
  // the instants in emission order with a dense seq.
  const std::string content = ReadAll(path);
  auto array = ParseJson(content);
  ASSERT_TRUE(array.ok()) << array.status().ToString();
  ASSERT_TRUE(array->is_array());
  const JsonValue& header = array->items.front();
  EXPECT_EQ(header.String("ph").value(), "M");
  EXPECT_EQ(header.String("name").value(), "process_name");

  const tracecat::Journal j = ReadJournal(path);
  EXPECT_TRUE(j.closed);
  EXPECT_TRUE(j.torn_tail.empty());
  EXPECT_EQ(j.label, "journal_test");
  EXPECT_EQ(j.schema, kDecisionSchema);
  EXPECT_EQ(EventNames(j),
            (std::vector<std::string>{"compress_begin", "select",
                                      "feature_reset", "compress_end"}));
  for (size_t i = 0; i < j.events.size(); ++i) {
    EXPECT_EQ(j.events[i].seq, i) << "seq must be dense";
  }
  EXPECT_EQ(j.events[1].Number("query").value(), 42.0);
  EXPECT_EQ(j.events[1].Number("gap").value(), 0.25);
  EXPECT_EQ(j.events[3].String("stop_reason").value(), "complete");
  EXPECT_TRUE(tracecat::CheckJournal(j).ok());
}

TEST_F(JournalTest, FakeClockTimestampsAreDeterministic) {
  g_fake_nanos.store(0, std::memory_order_relaxed);
  Tracer::Global().SetClockForTest(&FakeClock);
  const std::string path = TempPath("journal_clock.json");
  ASSERT_TRUE(Tracer::Global().Open(path, "clock"));
  journal::FeatureReset(1);
  journal::FeatureReset(2);
  Tracer::Global().Close();

  // One clock reading fixes the session origin in Open(); each event takes
  // exactly one more, so consecutive ts differ by exactly 1000us and share
  // the spans' time base.
  const tracecat::Journal j = ReadJournal(path);
  ASSERT_EQ(j.events.size(), 2u);
  for (size_t i = 0; i < j.events.size(); ++i) {
    EXPECT_EQ(j.events[i].t_us, 1000.0 * static_cast<double>(i + 1));
  }
}

TEST_F(JournalTest, SelectionOrderHashGoldens) {
  // FNV-1a over the selection order; these goldens pin the exact constants
  // (bench baselines and compress_end events both persist hashes, so the
  // function can never drift silently).
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
  EXPECT_FALSE(Tracer::Global().Open(
      testing::TempDir() + "/no_such_dir/trace.json", "x"));
  EXPECT_FALSE(journal::Enabled());
  EXPECT_FALSE(Tracer::Global().enabled());
  journal::FeatureReset(1);  // must be a no-op, not a crash
}

TEST_F(JournalTest, InMemoryTracingWritesNoEvents) {
  // --profile= without --trace= enables the tracer with no file open: the
  // spans record, the decision events are dropped.
  Tracer::Global().Enable();
  EXPECT_TRUE(Tracer::Global().enabled());
  EXPECT_FALSE(journal::Enabled());
  journal::FeatureReset(1);  // no file: a no-op
  InstantEvent("feature_reset", /*flush=*/true).Arg("selected", 1);
  EXPECT_FALSE(Tracer::Global().Close().ok) << "no file session to close";
  Tracer::Global().Disable();
}

TEST_F(JournalTest, BudgetTickIsRateLimited) {
  g_held_nanos.store(1'000'000'000, std::memory_order_relaxed);
  Tracer::Global().SetClockForTest(&HeldClock);
  const std::string path = TempPath("journal_tick.json");
  ASSERT_TRUE(Tracer::Global().Open(path, "tick"));

  journal::BudgetTick(10.0);  // first tick always emits
  journal::BudgetTick(9.9);   // same instant: suppressed
  g_held_nanos.fetch_add(100'000'000, std::memory_order_relaxed);  // +100ms
  journal::BudgetTick(9.8);  // inside the 250ms window: suppressed
  g_held_nanos.fetch_add(200'000'000, std::memory_order_relaxed);  // +300ms
  journal::BudgetTick(9.7);  // window elapsed: emits
  Tracer::Global().Close();

  std::vector<double> remaining;
  for (const tracecat::JournalEvent& e : ReadJournal(path).events) {
    if (e.event == "budget_tick") {
      remaining.push_back(e.Number("remaining_s").value());
    }
  }
  EXPECT_EQ(remaining, (std::vector<double>{10.0, 9.7}));

  // A new file starts a new window: its first tick emits at once.
  ASSERT_TRUE(Tracer::Global().Open(path, "tick"));
  journal::BudgetTick(9.6);
  Tracer::Global().Close();
  EXPECT_EQ(EventNames(ReadJournal(path)),
            std::vector<std::string>{"budget_tick"});
}

TEST_F(JournalTest, BudgetStopDeduplicatesConsecutiveReasons) {
  const std::string path = TempPath("journal_stop.json");
  ASSERT_TRUE(Tracer::Global().Open(path, "stop"));
  const char* deadline = StopReasonToString(StopReason::kDeadline);
  const char* cancelled = StopReasonToString(StopReason::kCancelled);
  journal::BudgetStop(deadline);
  journal::BudgetStop(deadline);  // repeat poll: suppressed
  journal::BudgetStop(cancelled);
  Tracer::Global().Close();

  std::vector<std::string> reasons;
  for (const tracecat::JournalEvent& e : ReadJournal(path).events) {
    if (e.event == "budget_stop") reasons.push_back(e.String("reason").value());
  }
  EXPECT_EQ(reasons, (std::vector<std::string>{"deadline", "cancelled"}));

  // The deduplication does not outlive the file.
  ASSERT_TRUE(Tracer::Global().Open(path, "stop"));
  journal::BudgetStop(cancelled);
  Tracer::Global().Close();
  EXPECT_EQ(EventNames(ReadJournal(path)),
            std::vector<std::string>{"budget_stop"});
}

TEST_F(JournalTest, AbnormalStopReasonFlushesEagerly) {
  // Never closed, never flushed by hand: each event below must be on disk
  // the moment its emitter returns, so a run killed right after it still
  // leaves it behind (docs/ROBUSTNESS.md).
  const std::string path = TempPath("journal_flush.json");
  ASSERT_TRUE(Tracer::Global().Open(path, "flush"));
  auto last_on_disk = [&] {
    const tracecat::Journal j = ReadJournal(path);
    EXPECT_FALSE(j.closed);
    EXPECT_TRUE(j.torn_tail.empty()) << j.torn_tail;
    return j.events.empty() ? std::string("(none)") : j.events.back().event;
  };

  journal::CompressBegin(10, 5, "summary-features", 1);
  journal::SelectRound(0, 3, 1.0, -1.0, 0, 10);
  const size_t order[] = {3};
  journal::CompressEnd(1, SelectionOrderHash(order, 1), 1.0, "deadline");
  EXPECT_EQ(last_on_disk(), "compress_end");
  EXPECT_EQ(ReadJournal(path).events.size(), 3u) << "earlier events too";
  journal::EnumEnd(2, 100.0, 80.0, "deadline");
  EXPECT_EQ(last_on_disk(), "enum_end");
  journal::PipelineEnd("ISUM", 5, 20.0, "fault");
  EXPECT_EQ(last_on_disk(), "pipeline_end");
  journal::Fault("whatif.cost", "unavailable");
  EXPECT_EQ(last_on_disk(), "fault");
  journal::BudgetStop(StopReasonToString(StopReason::kDeadline));
  EXPECT_EQ(last_on_disk(), "budget_stop");
  journal::CkptWrite("compress", 3, 1, 512);
  EXPECT_EQ(last_on_disk(), "ckpt_write");
  journal::CkptRestore("compress", 3, 1, SelectionOrderHash(order, 1), 0);
  EXPECT_EQ(last_on_disk(), "ckpt_restore");
}

TEST_F(JournalTest, InjectedDeadlineRegressionFlushesSelection) {
  // End-to-end regression: a selection killed by an (already expired)
  // injected deadline must leave its compress block on disk *before* the
  // file is closed — the eager flush on an abnormal stop_reason is the
  // only thing that guarantees it.
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);

  const std::string path = TempPath("journal_deadline.json");
  ASSERT_TRUE(Tracer::Global().Open(path, "deadline_regression"));
  core::IsumOptions options;
  options.budget = TimeBudget::After(0.0);  // expires immediately
  core::Isum isum(env.workload.get(), options);
  const workload::CompressedWorkload compressed = isum.Compress(5);
  EXPECT_EQ(compressed.stop_reason, StopReason::kDeadline);

  bool found_abnormal_end = false;
  for (const tracecat::JournalEvent& e : ReadJournal(path).events) {
    if (e.event == "compress_end") {
      EXPECT_EQ(e.String("stop_reason").value(), "deadline");
      found_abnormal_end = true;
    }
  }
  EXPECT_TRUE(found_abnormal_end)
      << "compress_end must reach disk without Close()";
}

TEST_F(JournalTest, ConcurrentEmittersKeepSeqDense) {
  const std::string path = TempPath("journal_concurrent.json");
  ASSERT_TRUE(Tracer::Global().Open(path, "concurrent"));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal::SelectRound(static_cast<uint64_t>(i),
                             static_cast<uint64_t>(t), 1.0, 0.5, 0, 10);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tracer::Global().Close();

  const tracecat::Journal j = ReadJournal(path);
  ASSERT_EQ(j.events.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 0; i < j.events.size(); ++i) {
    EXPECT_EQ(j.events[i].seq, i);
  }
}

}  // namespace
}  // namespace isum::obs
