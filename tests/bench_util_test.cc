// Tests for bench/bench_util.h: BenchFlags::Parse, the flag handling
// every bench driver goes through, and the file ObsScope writes. Parse
// must consume exactly the flags a driver takes and compact argc/argv
// around them; ObsScope exits 2 on anything left over.

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
  const BenchFlags flags = BenchFlags::Parse(args.argc(), args.argv());
  EXPECT_EQ(flags.bench_name, "bench_fig2");  // basename of argv[0]
  EXPECT_TRUE(flags.trace_path.empty());
  EXPECT_TRUE(flags.profile_path.empty());
  EXPECT_EQ(flags.time_budget_seconds, 0.0);
  EXPECT_EQ(flags.scale, 1.0);
  EXPECT_FALSE(flags.csv);
  EXPECT_FALSE(flags.compress_only);
  EXPECT_FALSE(flags.profile_alloc);
  EXPECT_EQ(args.Remaining(),
            (std::vector<std::string>{"/path/to/bench_fig2", "positional"}));
}

TEST(BenchObsFlags, ConsumesRecognizedFlagsAndKeepsTheRest) {
  ArgvFixture args({"bench", "--scale", "--trace=/tmp/t.json", "0.5",
                    "--unknown=1", "tail"});
  const BenchFlags flags = BenchFlags::Parse(args.argc(), args.argv());
  EXPECT_EQ(flags.trace_path, "/tmp/t.json");
  EXPECT_EQ(flags.scale, 1.0);  // "--scale" is not followed by a number
  // Unrecognized arguments survive in their original relative order.
  EXPECT_EQ(args.Remaining(), (std::vector<std::string>{
                                  "bench", "--scale", "0.5", "--unknown=1",
                                  "tail"}));
}

TEST(BenchObsFlags, ParsesEveryFlag) {
  ArgvFixture args({"bench", "--trace=t.json", "--faults=whatif:every=7",
                    "--time-budget=2.5", "--profile=p.json",
                    "--profile-alloc=1", "--checkpoint=ckpt/run",
                    "--checkpoint-every=3", "--allow-truncated"});
  const BenchFlags flags = BenchFlags::Parse(args.argc(), args.argv());
  EXPECT_EQ(flags.trace_path, "t.json");
  EXPECT_EQ(flags.faults_spec, "whatif:every=7");
  EXPECT_DOUBLE_EQ(flags.time_budget_seconds, 2.5);
  EXPECT_EQ(flags.profile_path, "p.json");
  EXPECT_TRUE(flags.profile_alloc);
  EXPECT_EQ(flags.checkpoint_path, "ckpt/run");
  EXPECT_EQ(flags.checkpoint_every, 3u);
  EXPECT_TRUE(flags.allow_truncated);
  // Everything was consumed.
  EXPECT_EQ(args.Remaining(), std::vector<std::string>{"bench"});
}

TEST(BenchObsFlags, ParsesTheDriversOwnFlags) {
  ArgvFixture args({"bench", "--csv", "--scale", "2.5", "--compress-only"});
  const BenchFlags flags = BenchFlags::Parse(args.argc(), args.argv());
  EXPECT_TRUE(flags.csv);
  EXPECT_DOUBLE_EQ(flags.scale, 2.5);
  EXPECT_TRUE(flags.compress_only);
  EXPECT_EQ(args.Remaining(), std::vector<std::string>{"bench"});
  // A value that is not all number is not a scale.
  ArgvFixture bad({"bench", "--scale", "2x"});
  EXPECT_EQ(BenchFlags::Parse(bad.argc(), bad.argv()).scale, 1.0);
  EXPECT_EQ(bad.Remaining(),
            (std::vector<std::string>{"bench", "--scale", "2x"}));
}

TEST(BenchObsFlags, ProfileAllocZeroDisables) {
  ArgvFixture args({"bench", "--profile=p.json", "--profile-alloc=0"});
  const BenchFlags flags = BenchFlags::Parse(args.argc(), args.argv());
  EXPECT_EQ(flags.profile_path, "p.json");
  EXPECT_FALSE(flags.profile_alloc);
}

TEST(BenchObsFlags, FlagPrefixesDoNotSwallowLookalikes) {
  // A flag-shaped unknown like "--tracer=" shares the "--trace" prefix and
  // must pass through.
  ArgvFixture args({"bench", "--tracer=x", "--csv2"});
  const BenchFlags flags = BenchFlags::Parse(args.argc(), args.argv());
  EXPECT_TRUE(flags.trace_path.empty());
  EXPECT_FALSE(flags.csv);
  EXPECT_EQ(args.Remaining(),
            (std::vector<std::string>{"bench", "--tracer=x", "--csv2"}));
}

TEST(BenchObsFlags, RetiredFlagsAreNotConsumed) {
  // The perf record moved to benchmark/isum_bench, the decision journal
  // and the metrics into the --trace= file; trace sampling and the profile
  // rate flag are gone. Parse leaves the old flags in argv, and ObsScope
  // exits 2 naming the first one, before doing anything else.
  for (const char* retired :
       {"--journal=x", "--trace-every=2", "--metrics=x",
        "--bench-json=x", "--metrics-snapshot=x"}) {
    SCOPED_TRACE(retired);
    ArgvFixture args({"bench", "--csv", retired});
    EXPECT_TRUE(BenchFlags::Parse(args.argc(), args.argv()).csv);
    EXPECT_EQ(args.Remaining(),
              (std::vector<std::string>{"bench", retired}));
    ArgvFixture scope_args({"bench", "--csv", retired});
    EXPECT_EXIT(ObsScope(scope_args.argc(), scope_args.argv()),
                testing::ExitedWithCode(2),
                std::string("bench: unknown argument: ") + retired);
  }
}

TEST(BenchObsScope, TraceCarriesTheFinalMetrics) {
  const std::string path = testing::TempDir() + "/obs_scope_metrics.json";
  std::remove(path.c_str());
  ArgvFixture args({"bench", "--trace=" + path});
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench_util_test.obs_scope");
  {
    ObsScope scope(args.argc(), args.argv());
    EXPECT_EQ(args.Remaining(), std::vector<std::string>{"bench"});
    counter->Add(7);
  }
  StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  auto tick = tracecat::LastMetrics(*content);
  ASSERT_TRUE(tick.ok()) << tick.status().ToString();
  // The final tick comes after the driver's work: it carries the counter
  // as the driver left it, and the exporter's process gauges.
  EXPECT_EQ(tick->Value("bench_util_test.obs_scope"),
            static_cast<double>(counter->Value()));
  EXPECT_GE(tick->Value("bench_util_test.obs_scope"), 7.0);
  EXPECT_GT(tick->Value("process.peak_rss_bytes"), 0.0);
  EXPECT_EQ(tick->Value("budget.remaining_seconds"), -1.0);
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
  EXPECT_EQ(BenchFlags::BaseName("bench_fig2"), "bench_fig2");
  EXPECT_EQ(BenchFlags::BaseName("./build/bench/bench_fig2"), "bench_fig2");
  EXPECT_EQ(BenchFlags::BaseName("/bench_fig2"), "bench_fig2");
}

}  // namespace
}  // namespace isum::bench
