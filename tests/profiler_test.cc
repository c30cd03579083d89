// Tests for src/obs/profiler: the sampling CPU profiler's session
// lifecycle, phase attribution through the tracer's span stack, and the
// profile event of a trace file (Tracer::WriteProfile, read back by
// tracecat, which also renders the collapsed stacks; driven from synthetic
// ProfileDumps, so golden assertions don't depend on real sampling).
// Suite names start with `Profiler` so the TSan CI job picks the
// signal-heavy tests up via its --gtest_filter.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#if defined(__has_include)
#if __has_include(<dlfcn.h>) && __has_include(<execinfo.h>) && \
    __has_include(<link.h>) && defined(__GLIBC__)
#define ISUM_PROFILER_TEST_HAVE_SYMTAB 1
#include <dlfcn.h>
#endif
#endif

#include "common/checkpoint.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "tools/tracecat/tracecat.h"

namespace isum::obs {
namespace {

/// Consumes CPU until the profiler has captured at least `min_samples` (or
/// the iteration cap is hit — the caller asserts on the count, so a stuck
/// timer fails the test instead of hanging it). ITIMER_PROF ticks on
/// consumed CPU time, so this loop must actually burn cycles. Never
/// inlined, so its samples carry its own frame, which has internal linkage
/// and so no dynamic symbol.
[[gnu::noinline]] uint64_t SpinUntilSamples(uint64_t min_samples) {
  volatile uint64_t sink = 0;
  for (int outer = 0; outer < 20000; ++outer) {
    for (uint64_t i = 0; i < 200000; ++i) sink = sink + i * i;
    if (Profiler::Global().samples_captured() >= min_samples) break;
  }
  return sink;
}

TEST(ProfilerSession, StartStopCapturesSamples) {
  ProfilerOptions options;
  options.sample_hz = 1000;  // fast so the test stays short
  ASSERT_TRUE(Profiler::Global().Start(options));
  EXPECT_TRUE(Profiler::Global().running());
  EXPECT_FALSE(Profiler::Global().Start(options));  // double start rejected

  SpinUntilSamples(5);
  const ProfileDump dump = Profiler::Global().Stop();
  EXPECT_FALSE(Profiler::Global().running());
  EXPECT_EQ(dump.sample_hz, 1000);
  EXPECT_GE(dump.samples, 5u);
  EXPECT_FALSE(dump.stacks.empty());
  uint64_t stack_total = 0;
  for (const ProfileStack& stack : dump.stacks) stack_total += stack.count;
  EXPECT_EQ(stack_total, dump.samples);
}

TEST(ProfilerSession, StopWithoutStartReturnsEmptyDump) {
  const ProfileDump dump = Profiler::Global().Stop();
  EXPECT_EQ(dump.samples, 0u);
  EXPECT_TRUE(dump.stacks.empty());
}

TEST(ProfilerSession, TinyBufferCountsDroppedSamples) {
  ProfilerOptions options;
  options.sample_hz = 1000;
  options.max_samples = 16;  // the floor Start() clamps to
  ASSERT_TRUE(Profiler::Global().Start(options));
  SpinUntilSamples(16);
  // Burn a little more CPU so samples arrive after the buffer filled.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 40000000; ++i) sink = sink + i;
  const ProfileDump dump = Profiler::Global().Stop();
  EXPECT_LE(dump.samples, 16u);
  if (dump.samples == 16u) {
    EXPECT_GT(dump.dropped, 0u);
  }
}

TEST(ProfilerAttribution, SamplesInsideSpanCarryItsPhase) {
  Tracer::Global().Enable();
  ProfilerOptions options;
  options.sample_hz = 1000;
  ASSERT_TRUE(Profiler::Global().Start(options));
  {
    TraceSpan span("profiler-test/spin");
    SpinUntilSamples(20);
  }
  const ProfileDump dump = Profiler::Global().Stop();
  Tracer::Global().Disable();
  (void)Tracer::Global().Drain();

  ASSERT_GE(dump.samples, 1u);
  uint64_t in_phase = 0;
  for (const ProfileStack& stack : dump.stacks) {
    if (stack.phase == "profiler-test/spin") in_phase += stack.count;
  }
  // Everything this thread did between Start and Stop ran inside the span;
  // allow a stray sample on either side of the span's lifetime.
  EXPECT_GE(in_phase + 2, dump.attributed);
  EXPECT_GE(dump.attributed * 10, dump.samples * 9)
      << "expected >=90% of samples attributed, got " << dump.attributed
      << "/" << dump.samples;
}

#ifdef ISUM_PROFILER_TEST_HAVE_SYMTAB
/// Frames of the samples one 1 kHz session takes inside SpinUntilSamples.
std::set<std::string> InternalLinkageSessionFrames() {
  Tracer::Global().Enable();
  ProfilerOptions options;
  options.sample_hz = 1000;
  EXPECT_TRUE(Profiler::Global().Start(options));
  {
    TraceSpan span("profiler-test/internal");
    SpinUntilSamples(20);
  }
  const ProfileDump dump = Profiler::Global().Stop();
  Tracer::Global().Disable();
  (void)Tracer::Global().Drain();
  std::set<std::string> frames;
  for (const ProfileStack& stack : dump.stacks) {
    if (stack.phase != "profiler-test/internal") continue;
    frames.insert(stack.frames.begin(), stack.frames.end());
  }
  return frames;
}

TEST(ProfilerSymbols, InternalLinkageFramesHaveStableNames) {
  // SpinUntilSamples has no dynamic symbol, so its name comes from the
  // test binary's .symtab: one demangled frame for every pc sampled in
  // it, the same in both sessions, never `<object>+0x<offset>` (one frame
  // per pc) and never a bare address, which ASLR moves between runs.
  Dl_info info;
  ASSERT_NE(dladdr(reinterpret_cast<void*>(&SpinUntilSamples), &info), 0);
  ASSERT_EQ(info.dli_sname, nullptr);  // internal linkage: no dynamic symbol
  const char* slash = std::strrchr(info.dli_fname, '/');
  const std::string object =
      std::string(slash == nullptr ? info.dli_fname : slash + 1) + "+0x";
  std::set<std::string> spin_frames;
  for (const std::set<std::string>& frames :
       {InternalLinkageSessionFrames(), InternalLinkageSessionFrames()}) {
    ASSERT_FALSE(frames.empty());
    for (const std::string& frame : frames) {
      EXPECT_NE(frame.rfind("0x", 0), 0u) << "bare address frame " << frame;
      EXPECT_NE(frame.rfind(object, 0), 0u) << "offset frame " << frame;
      if (frame.find("SpinUntilSamples") != std::string::npos) {
        spin_frames.insert(frame);
      }
    }
  }
  ASSERT_EQ(spin_frames.size(), 1u);
  EXPECT_EQ(spin_frames.begin()->rfind(
                "isum::obs::(anonymous namespace)::SpinUntilSamples(", 0),
            0u)
      << *spin_frames.begin();
}
#endif  // ISUM_PROFILER_TEST_HAVE_SYMTAB

TEST(ProfilerPhaseStack, PushPopNestAndOverflowAreSafe) {
  EXPECT_EQ(internal::CurrentPhase(), nullptr);
  internal::PushPhase("outer");
  EXPECT_STREQ(internal::CurrentPhase(), "outer");
  internal::PushPhase("inner");
  EXPECT_STREQ(internal::CurrentPhase(), "inner");
  internal::PopPhase();
  EXPECT_STREQ(internal::CurrentPhase(), "outer");
  // Overflowing the fixed-depth stack keeps the deepest recorded phase and
  // must not write out of bounds.
  for (int i = 0; i < 100; ++i) internal::PushPhase("deep");
  EXPECT_STREQ(internal::CurrentPhase(), "deep");
  for (int i = 0; i < 100; ++i) internal::PopPhase();
  EXPECT_STREQ(internal::CurrentPhase(), "outer");
  internal::PopPhase();
  EXPECT_EQ(internal::CurrentPhase(), nullptr);
  internal::PopPhase();  // pop on empty is a no-op
  EXPECT_EQ(internal::CurrentPhase(), nullptr);
}

/// Synthetic dump shared by the export goldens.
ProfileDump SampleDump() {
  ProfileDump dump;
  dump.sample_hz = 100;
  dump.samples = 10;
  dump.dropped = 1;
  dump.attributed = 9;
  dump.stacks.push_back(
      ProfileStack{"compress/greedy-pick", {"main", "Greedy", "Score"}, 6});
  dump.stacks.push_back(
      ProfileStack{"compress/greedy-pick", {"main", "Greedy"}, 2});
  dump.stacks.push_back(
      ProfileStack{"whatif/optimize", {"main", "Optimize"}, 1});
  dump.stacks.push_back(ProfileStack{"", {"main"}, 1});
  return dump;
}

/// Offset of the profile event's head in `text`, or npos. Its tid is the
/// writing thread's dense tracer id, which depends on how many threads the
/// process registered before (more than one test runs in one process).
size_t FindProfileHead(const std::string& text) {
  const std::string open = "{\"ph\":\"M\",\"pid\":1,\"tid\":";
  const std::string close = ",\"name\":\"profile\",\"ts\":";
  for (size_t pos = text.find(open); pos != std::string::npos;
       pos = text.find(open, pos + 1)) {
    size_t end = pos + open.size();
    while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
    if (end > pos + open.size() &&
        text.compare(end, close.size(), close) == 0) {
      return pos;
    }
  }
  return std::string::npos;
}

/// The content of a trace file holding `dump` as its profile event, closed
/// as Tracer::Close() leaves it or, with `closed` false, as a run killed
/// right after WriteProfile leaves it.
std::string TraceWithProfile(const ProfileDump& dump, bool closed) {
  // Named after the running test: ctest runs tests as parallel processes.
  const std::string path =
      testing::TempDir() + "/profiler_export." +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  Tracer& tracer = Tracer::Global();
  EXPECT_TRUE(tracer.Open(path, "run"));
  EXPECT_TRUE(tracer.WriteProfile(dump));
  if (closed) {
    EXPECT_TRUE(tracer.Close().ok);
  }
  StatusOr<std::string> content = ReadFileToString(path);
  tracer.Close();
  EXPECT_TRUE(content.ok()) << content.status().ToString();
  return content.ok() ? *content : std::string();
}

/// `dump` through a trace file and back through tracecat's reader.
tracecat::ProfileRecord RoundTrip(const ProfileDump& dump) {
  auto record = tracecat::ParseProfile(TraceWithProfile(dump, true));
  EXPECT_TRUE(record.ok()) << record.status().ToString();
  return record.ok() ? *record : tracecat::ProfileRecord();
}

TEST(ProfilerExport, CollapsedStacksMatchFlamegraphFormat) {
  const std::string collapsed =
      tracecat::CollapsedStacks(RoundTrip(SampleDump()));
  EXPECT_EQ(collapsed,
            "compress/greedy-pick;main;Greedy;Score 6\n"
            "compress/greedy-pick;main;Greedy 2\n"
            "whatif/optimize;main;Optimize 1\n"
            "(unattributed);main 1\n");
}

TEST(ProfilerExport, CollapsedStacksSanitizeSeparators) {
  ProfileDump dump;
  dump.sample_hz = 100;
  dump.samples = 1;
  dump.stacks.push_back(ProfileStack{"phase;x", {"fn;y"}, 1});
  EXPECT_EQ(tracecat::CollapsedStacks(RoundTrip(dump)), "phase:x;fn:y 1\n");
}

TEST(ProfilerExport, ProfileJsonCarriesScalarsPhasesAndFrames) {
  const std::string trace = TraceWithProfile(SampleDump(), true);
  EXPECT_NE(FindProfileHead(trace), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"args\":{\"sample_hz\":100,\"samples\":10,"
                       "\"dropped\":1,\"attributed\":9,\"stacks\":["),
            std::string::npos);
  EXPECT_NE(trace.find("{\"phase\":\"compress/greedy-pick\",\"frames\":"
                       "[\"main\",\"Greedy\",\"Score\"],\"count\":6}"),
            std::string::npos);

  const tracecat::ProfileRecord record = RoundTrip(SampleDump());
  EXPECT_EQ(record.label, "run");
  EXPECT_EQ(record.dump.sample_hz, 100);
  EXPECT_EQ(record.dump.samples, 10u);
  EXPECT_EQ(record.dump.dropped, 1u);
  EXPECT_EQ(record.dump.attributed, 9u);
  EXPECT_DOUBLE_EQ(record.attributed_percent, 90.0);
  // Phases aggregate the two greedy-pick stacks and sort descending.
  ASSERT_EQ(record.phases.size(), 3u);
  EXPECT_EQ(record.phases[0].name, "compress/greedy-pick");
  EXPECT_EQ(record.phases[0].samples, 8u);
  EXPECT_DOUBLE_EQ(record.phases[0].percent, 80.0);
  EXPECT_EQ(record.phases[1].name, "(unattributed)");  // ties sort by name
  // Frame self/total: Greedy is the leaf of one 2-sample stack but appears
  // in 8 samples total.
  auto frame = [&record](const std::string& name) {
    for (const tracecat::ProfileFrameStat& f : record.frames) {
      if (f.name == name) return f;
    }
    return tracecat::ProfileFrameStat{};
  };
  EXPECT_EQ(frame("Greedy").self, 2u);
  EXPECT_EQ(frame("Greedy").total, 8u);
  EXPECT_EQ(frame("Score").self, 6u);
  EXPECT_EQ(frame("Score").total, 6u);
}

TEST(ProfilerExport, ProfileJsonIsLineDisciplined) {
  // WriteProfile writes one flushed line (the last, until Close() appends
  // more), so the trace of a run killed before Close() still holds the
  // whole profile.
  const std::string trace = TraceWithProfile(SampleDump(), false);
  const std::string last_line = trace.substr(trace.rfind('\n') + 1);
  EXPECT_EQ(FindProfileHead(last_line), 0u) << last_line;
  EXPECT_EQ(last_line.back(), '}');
  EXPECT_EQ(trace.find("\"profile\""), trace.rfind("\"profile\""));
  const auto record = tracecat::ParseProfile(trace);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(tracecat::CollapsedStacks(*record),
            tracecat::CollapsedStacks(RoundTrip(SampleDump())));
}

}  // namespace
}  // namespace isum::obs
