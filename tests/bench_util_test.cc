// Tests for bench/bench_util.h: ObsFlags::Parse, the uniform
// observability-flag handling every bench driver goes through, and the
// files ObsScope writes. Parse must consume exactly the flags it owns and
// compact argc/argv around them so downstream parsers (google-benchmark's
// included) see the rest untouched and in order.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/checkpoint.h"
#include "core/isum.h"
#include "tools/tracecat/tracecat.h"
#include "workload/workload_factory.h"

namespace isum::bench {
namespace {

/// argv fixture: builds a mutable char*[] from string literals the way
/// main() receives it (Parse rewrites the pointer array in place).
class ArgvFixture {
 public:
  explicit ArgvFixture(std::vector<std::string> args)
      : storage_(std::move(args)) {
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
    argc_ = static_cast<int>(pointers_.size());
  }
  int& argc() { return argc_; }
  char** argv() { return pointers_.data(); }
  std::vector<std::string> Remaining() const {
    std::vector<std::string> out;
    for (int i = 0; i < argc_; ++i) out.emplace_back(pointers_[i]);
    return out;
  }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
  int argc_ = 0;
};

TEST(BenchObsFlags, DefaultsWithNoFlags) {
  ArgvFixture args({"/path/to/bench_fig2", "positional"});
  const ObsFlags flags = ObsFlags::Parse(args.argc(), args.argv());
  EXPECT_EQ(flags.bench_name, "bench_fig2");  // basename of argv[0]
  EXPECT_TRUE(flags.trace_path.empty());
  EXPECT_TRUE(flags.metrics_path.empty());
  EXPECT_TRUE(flags.profile_path.empty());
  EXPECT_EQ(flags.time_budget_seconds, 0.0);
  EXPECT_EQ(flags.profile_hz, 100);
  EXPECT_FALSE(flags.profile_alloc);
  EXPECT_EQ(args.Remaining(),
            (std::vector<std::string>{"/path/to/bench_fig2", "positional"}));
}

TEST(BenchObsFlags, ConsumesRecognizedFlagsAndKeepsTheRest) {
  ArgvFixture args({"bench", "--scale", "--trace=/tmp/t.json", "0.5",
                    "--metrics=/tmp/m.jsonl", "--unknown=1", "tail"});
  const ObsFlags flags = ObsFlags::Parse(args.argc(), args.argv());
  EXPECT_EQ(flags.trace_path, "/tmp/t.json");
  EXPECT_EQ(flags.metrics_path, "/tmp/m.jsonl");
  // Unrecognized arguments survive in their original relative order.
  EXPECT_EQ(args.Remaining(), (std::vector<std::string>{
                                  "bench", "--scale", "0.5", "--unknown=1",
                                  "tail"}));
}

TEST(BenchObsFlags, ParsesEveryFlag) {
  ArgvFixture args({"bench", "--trace=t.json", "--metrics=m.jsonl",
                    "--faults=whatif:every=7", "--time-budget=2.5",
                    "--profile=p.json", "--profile-hz=250",
                    "--profile-alloc=1"});
  const ObsFlags flags = ObsFlags::Parse(args.argc(), args.argv());
  EXPECT_EQ(flags.trace_path, "t.json");
  EXPECT_EQ(flags.metrics_path, "m.jsonl");
  EXPECT_EQ(flags.faults_spec, "whatif:every=7");
  EXPECT_DOUBLE_EQ(flags.time_budget_seconds, 2.5);
  EXPECT_EQ(flags.profile_path, "p.json");
  EXPECT_EQ(flags.profile_hz, 250);
  EXPECT_TRUE(flags.profile_alloc);
  // Everything was consumed.
  EXPECT_EQ(args.Remaining(), std::vector<std::string>{"bench"});
}

TEST(BenchObsFlags, ProfileAllocZeroDisables) {
  ArgvFixture args({"bench", "--profile=p.json", "--profile-alloc=0"});
  const ObsFlags flags = ObsFlags::Parse(args.argc(), args.argv());
  EXPECT_EQ(flags.profile_path, "p.json");
  EXPECT_FALSE(flags.profile_alloc);
}

TEST(BenchObsFlags, FlagPrefixesDoNotSwallowLookalikes) {
  // A flag-shaped unknown like "--tracer=" shares the "--trace" prefix and
  // must pass through.
  ArgvFixture args({"bench", "--tracer=x"});
  const ObsFlags flags = ObsFlags::Parse(args.argc(), args.argv());
  EXPECT_TRUE(flags.trace_path.empty());
  EXPECT_EQ(args.Remaining(),
            (std::vector<std::string>{"bench", "--tracer=x"}));
}

TEST(BenchObsFlags, RetiredFlagsAreNotConsumed) {
  // The perf record moved to benchmark/isum_bench, the snapshot file to
  // --metrics= and the decision journal into the --trace= file; trace
  // sampling is gone. The old flags reach the driver's own parser
  // untouched.
  ArgvFixture args({"bench", "--bench-json=x", "--bench-label=y",
                    "--metrics-snapshot=x", "--journal=j.jsonl",
                    "--trace-every=4"});
  const ObsFlags flags = ObsFlags::Parse(args.argc(), args.argv());
  EXPECT_TRUE(flags.metrics_path.empty());
  EXPECT_TRUE(flags.trace_path.empty());
  EXPECT_EQ(args.Remaining(),
            (std::vector<std::string>{
                "bench", "--bench-json=x", "--bench-label=y",
                "--metrics-snapshot=x", "--journal=j.jsonl",
                "--trace-every=4"}));
}

TEST(BenchObsScope, MetricsFlagWritesSnapshotAtExit) {
  const std::string path = testing::TempDir() + "/obs_scope_metrics.jsonl";
  std::remove(path.c_str());
  ArgvFixture args({"bench", "--metrics=" + path});
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench_util_test.obs_scope");
  {
    ObsScope scope(args.argc(), args.argv());
    EXPECT_EQ(args.Remaining(), std::vector<std::string>{"bench"});
    counter->Add(7);
  }
  StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  auto metrics = tracecat::ParseMetricsJsonl(*content);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  bool saw_counter = false;
  bool saw_peak_rss = false;
  for (const tracecat::MetricLine& m : *metrics) {
    if (m.type == "counter" && m.name == "bench_util_test.obs_scope") {
      EXPECT_EQ(m.value, static_cast<double>(counter->Value()));
      EXPECT_GE(m.value, 7.0);
      saw_counter = true;
    }
    if (m.type == "gauge" && m.name == "process.peak_rss_bytes") {
      EXPECT_GT(m.value, 0.0);
      saw_peak_rss = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_peak_rss);
}

TEST(BenchObsScope, TraceFlagWritesSpansAndDecisionsToOneFile) {
  const std::string path = testing::TempDir() + "/obs_scope_trace.json";
  std::remove(path.c_str());
  ArgvFixture args({"bench", "--trace=" + path});
  {
    ObsScope scope(args.argc(), args.argv());
    workload::GeneratorOptions gen;
    gen.instances_per_template = 1;
    workload::GeneratedWorkload env = workload::MakeTpch(gen);
    core::Isum isum(env.workload.get());
    EXPECT_EQ(isum.Compress(3).entries.size(), 3u);
  }
  StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  auto spans = tracecat::ParseChromeTrace(*content);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  EXPECT_FALSE(tracecat::AggregatePhases(*spans).empty());
  auto journal = tracecat::ParseJournal(*content);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->label, "bench");
  const auto checked = tracecat::CheckJournal(*journal);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  // compress_begin, three selects, compress_end.
  EXPECT_EQ(checked.value(), 5u);
}

TEST(BenchObsFlags, BaseNameHandlesPlainAndNestedPaths) {
  EXPECT_EQ(ObsFlags::BaseName("bench_fig2"), "bench_fig2");
  EXPECT_EQ(ObsFlags::BaseName("./build/bench/bench_fig2"), "bench_fig2");
  EXPECT_EQ(ObsFlags::BaseName("/bench_fig2"), "bench_fig2");
}

}  // namespace
}  // namespace isum::bench
