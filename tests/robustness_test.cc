// Tests for the robustness layer: deadlines, cancellation tokens, time
// budgets, deterministic fault injection, retry/backoff, and graceful
// best-so-far truncation across the pipeline (docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/dexter_advisor.h"
#include "advisor/enumerator.h"
#include "common/check.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "core/isum.h"
#include "engine/what_if.h"
#include "eval/pipeline.h"
#include "obs/metrics.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

// --- Deterministic clock / sleep hooks (function pointers, so state is
// static). ---

std::atomic<uint64_t> g_fake_now{0};
uint64_t FakeNow() { return g_fake_now.load(std::memory_order_relaxed); }

std::atomic<uint64_t> g_slept_nanos{0};
std::atomic<uint64_t> g_sleep_calls{0};
void FakeSleep(uint64_t nanos) {
  g_slept_nanos.fetch_add(nanos, std::memory_order_relaxed);
  g_sleep_calls.fetch_add(1, std::memory_order_relaxed);
}

/// RAII: installs the fake clock/sleeper and disarms faults + ambient
/// budget on the way out, so process-global state never leaks across tests.
class RobustnessEnvironment {
 public:
  RobustnessEnvironment() {
    g_fake_now.store(0);
    g_slept_nanos.store(0);
    g_sleep_calls.store(0);
  }
  ~RobustnessEnvironment() {
    SetMonotonicClockForTest(nullptr);
    SetSleepForTest(nullptr);
    FaultInjector::Global().Reset();
    InstallAmbientBudget(TimeBudget());
  }
};

// --- Deadline ---

TEST(DeadlineTest, DefaultIsUnlimited) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_nanos(), Deadline::kNoDeadline);
}

TEST(DeadlineTest, NonPositiveBudgetExpiresImmediately) {
  EXPECT_TRUE(Deadline::After(0.0).expired());
  EXPECT_TRUE(Deadline::After(-1.0).expired());
}

TEST(DeadlineTest, AbsurdBudgetSaturatesToUnlimited) {
  EXPECT_TRUE(Deadline::After(1e300).unlimited());
}

TEST(DeadlineTest, ExpiresWhenFakeClockPasses) {
  RobustnessEnvironment env;
  SetMonotonicClockForTest(&FakeNow);
  g_fake_now.store(1000);
  const Deadline d = Deadline::AtNanos(5000);
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_nanos(), 4000u);
  g_fake_now.store(5000);
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_nanos(), 0u);
}

// --- CancellationToken ---

TEST(CancellationTokenTest, NullTokenIsNeverCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTokenTest, CancelFiresSharedCopies) {
  const CancellationToken token = CancellationToken::Cancellable();
  const CancellationToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.Cancel();
  EXPECT_TRUE(copy.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, ChildObservesParentButNotViceVersa) {
  const CancellationToken parent = CancellationToken::Cancellable();
  const CancellationToken child = parent.Child();
  const CancellationToken grandchild = child.Child();
  child.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(grandchild.cancelled());
  EXPECT_FALSE(parent.cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(grandchild.cancelled());
}

TEST(CancellationTokenTest, ChildOfNullTokenIsFreshRoot) {
  const CancellationToken root = CancellationToken().Child();
  EXPECT_TRUE(root.cancellable());
  EXPECT_FALSE(root.cancelled());
  root.Cancel();
  EXPECT_TRUE(root.cancelled());
}

// --- TimeBudget + stop-reason taxonomy ---

TEST(TimeBudgetTest, UnlimitedBudgetIsAlwaysOk) {
  const TimeBudget budget;
  EXPECT_FALSE(budget.limited());
  EXPECT_FALSE(budget.Expired());
  EXPECT_TRUE(budget.CheckCancelled().ok());
}

TEST(TimeBudgetTest, ExpiredDeadlineReportsDeadlineExceeded) {
  RobustnessEnvironment env;
  SetMonotonicClockForTest(&FakeNow);
  g_fake_now.store(100);
  const TimeBudget budget(Deadline::AtNanos(50));
  EXPECT_TRUE(budget.limited());
  EXPECT_TRUE(budget.Expired());
  const uint64_t before =
      obs::MetricsRegistry::Global().GetCounter("deadline.exceeded")->Value();
  const Status status = budget.CheckCancelled();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(TimeBudget::ReasonFor(status), StopReason::kDeadline);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("deadline.exceeded")->Value(),
      before + 1);
}

TEST(TimeBudgetTest, CancellationWinsOverExpiredDeadline) {
  RobustnessEnvironment env;
  SetMonotonicClockForTest(&FakeNow);
  g_fake_now.store(100);
  const CancellationToken token = CancellationToken::Cancellable();
  token.Cancel();
  const TimeBudget budget(Deadline::AtNanos(50), token);
  const Status status = budget.CheckCancelled();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(TimeBudget::ReasonFor(status), StopReason::kCancelled);
}

TEST(TimeBudgetTest, ReasonForMapsFaultsToKFault) {
  EXPECT_EQ(TimeBudget::ReasonFor(Status::OK()), StopReason::kComplete);
  EXPECT_EQ(TimeBudget::ReasonFor(Status::Unavailable("x")),
            StopReason::kFault);
  EXPECT_EQ(TimeBudget::ReasonFor(Status::Internal("x")), StopReason::kFault);
}

TEST(TimeBudgetTest, StopReasonNamesAreStable) {
  EXPECT_STREQ(StopReasonToString(StopReason::kComplete), "complete");
  EXPECT_STREQ(StopReasonToString(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonToString(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(StopReasonToString(StopReason::kFault), "fault");
}

TEST(TimeBudgetTest, AmbientBudgetBacksUnlimitedLocalBudgets) {
  RobustnessEnvironment env;
  const CancellationToken token = CancellationToken::Cancellable();
  InstallAmbientBudget(TimeBudget(Deadline(), token));
  EXPECT_TRUE(EffectiveBudget(TimeBudget()).limited());
  // A limited local budget wins over the ambient one.
  const TimeBudget local = TimeBudget::After(3600.0);
  EXPECT_EQ(EffectiveBudget(local).deadline().nanos(),
            local.deadline().nanos());
  // Installing an unlimited budget clears the ambient fallback.
  InstallAmbientBudget(TimeBudget());
  EXPECT_FALSE(EffectiveBudget(TimeBudget()).limited());
}

// --- Status error-path round-trips (new codes) ---

TEST(StatusRobustnessTest, NewCodesRoundTrip) {
  const Status deadline = Status::DeadlineExceeded("too slow");
  EXPECT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(deadline.ToString().find("DeadlineExceeded"), std::string::npos);
  EXPECT_NE(deadline.ToString().find("too slow"), std::string::npos);

  const Status cancelled = Status::Cancelled("user hit ^C");
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_NE(cancelled.ToString().find("Cancelled"), std::string::npos);

  const Status unavailable = Status::Unavailable("flaky backend");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_NE(unavailable.ToString().find("Unavailable"), std::string::npos);
}

TEST(StatusRobustnessTest, StatusOrPropagatesRobustnessCodes) {
  const StatusOr<double> or_deadline(Status::DeadlineExceeded("late"));
  ASSERT_FALSE(or_deadline.ok());
  EXPECT_EQ(or_deadline.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RobustnessDeathTest, CheckOkPrintsDeadlineDetail) {
  EXPECT_DEATH(ISUM_CHECK_OK(Status::DeadlineExceeded("budget blown")),
               "DeadlineExceeded: budget blown");
}

// --- Fault spec parsing ---

class FaultSpecTest : public ::testing::Test {
 protected:
  ~FaultSpecTest() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultSpecTest, ValidSpecConfiguresSitesAndSeed) {
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"seed\":42};"
                             "{\"site\":\"whatif.cost\",\"kind\":\"error\","
                             "\"p\":0.25};"
                             "{\"site\":\"*\",\"kind\":\"latency\",\"p\":1.0,"
                             "\"ms\":0.5}")
                  .ok());
  EXPECT_TRUE(FaultInjector::Armed());
  EXPECT_EQ(FaultInjector::Global().seed(), 42u);
  const std::vector<std::string> sites =
      FaultInjector::Global().ConfiguredSites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], "whatif.cost");
  EXPECT_EQ(sites[1], "*");
}

TEST_F(FaultSpecTest, ReorderedKeysConfigure) {
  // Key order is free, and a site may be named like a key: "after" here is
  // a value, so the rule has no warm-up window and fires on the first call.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"p\":0.25,\"kind\":\"error\","
                             "\"site\":\"whatif.cost\"};"
                             "{\"kind\":\"error\",\"site\":\"after\","
                             "\"p\":1.0};"
                             "{\"seed\":42}")
                  .ok());
  EXPECT_EQ(FaultInjector::Global().seed(), 42u);
  const std::vector<std::string> sites =
      FaultInjector::Global().ConfiguredSites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], "whatif.cost");
  EXPECT_EQ(sites[1], "after");
  EXPECT_EQ(CheckFault("after").code(), StatusCode::kUnavailable);
}

TEST_F(FaultSpecTest, EmptySpecDisarms) {
  ASSERT_TRUE(
      FaultInjector::Global()
          .Configure("{\"site\":\"x\",\"kind\":\"error\",\"p\":1.0}")
          .ok());
  EXPECT_TRUE(FaultInjector::Armed());
  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  EXPECT_FALSE(FaultInjector::Armed());
  EXPECT_TRUE(CheckFault("x").ok());
}

TEST_F(FaultSpecTest, MalformedJsonSurfacesParseErrors) {
  // Each spec exercises a different jsonl.cc malformed-input branch; none
  // may install a configuration.
  const char* bad_specs[] = {
      "{\"site\":\"x\",\"kind\":\"error\"}",           // missing p
      "{\"kind\":\"error\",\"p\":1.0}",                // missing site
      "{\"site\":\"x\",\"p\":1.0}",                    // missing kind
      "{\"site\":\"x\",\"kind\":\"error\",\"p\":}",    // number cut off
      "{\"seed\":\"not-a-number\"}",                   // wrong value type
      "{\"site\":\"x\",\"kind\":\"error\",\"p\":abc}"  // garbage number
  };
  for (const char* spec : bad_specs) {
    const Status status = FaultInjector::Global().Configure(spec);
    EXPECT_FALSE(status.ok()) << spec;
    EXPECT_EQ(status.code(), StatusCode::kParseError) << spec;
    EXPECT_FALSE(FaultInjector::Armed()) << spec;
  }
}

TEST_F(FaultSpecTest, SemanticErrorsAreInvalidArgument) {
  const char* bad_specs[] = {
      "{\"site\":\"x\",\"kind\":\"panic\",\"p\":1.0}",         // unknown kind
      "{\"site\":\"x\",\"kind\":\"error\",\"p\":1.5}",         // p > 1
      "{\"site\":\"x\",\"kind\":\"error\",\"p\":-0.1}",        // p < 0
      "{\"seed\":-3}",                                         // negative seed
      "{\"site\":\"x\",\"kind\":\"latency\",\"p\":1,\"ms\":-1}"  // ms < 0
  };
  for (const char* spec : bad_specs) {
    const Status status = FaultInjector::Global().Configure(spec);
    EXPECT_FALSE(status.ok()) << spec;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST_F(FaultSpecTest, ErrorFaultReturnsUnavailableNamingTheSite) {
  ASSERT_TRUE(
      FaultInjector::Global()
          .Configure("{\"site\":\"compress.select\",\"kind\":\"error\","
                     "\"p\":1.0}")
          .ok());
  const Status status = CheckFault("compress.select");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.ToString().find("compress.select"), std::string::npos);
  // Unmatched sites are untouched.
  EXPECT_TRUE(CheckFault("other.site").ok());
  EXPECT_GE(FaultInjector::Global().injected(), 1u);
}

TEST_F(FaultSpecTest, DecisionStreamIsDeterministicPerSeed) {
  const std::string spec =
      "{\"seed\":7};{\"site\":\"s\",\"kind\":\"error\",\"p\":0.5}";
  std::vector<bool> first;
  ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
  for (int i = 0; i < 64; ++i) first.push_back(!CheckFault("s").ok());
  // Reconfiguring the same spec resets the stream: identical decisions.
  ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(!CheckFault("s").ok(), first[i]) << "invocation " << i;
  }
  // A p=0.5 stream must actually mix failures and successes.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  // A different seed produces a different stream.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"seed\":8};"
                             "{\"site\":\"s\",\"kind\":\"error\",\"p\":0.5}")
                  .ok());
  std::vector<bool> second;
  for (int i = 0; i < 64; ++i) second.push_back(!CheckFault("s").ok());
  EXPECT_NE(first, second);
}

TEST_F(FaultSpecTest, LatencyFaultSleepsAndProceeds) {
  RobustnessEnvironment env;
  SetSleepForTest(&FakeSleep);
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"site\":\"slow.site\",\"kind\":\"latency\","
                             "\"p\":1.0,\"ms\":2.5}")
                  .ok());
  EXPECT_TRUE(CheckFault("slow.site").ok());  // delayed, not failed
  EXPECT_EQ(g_sleep_calls.load(), 1u);
  EXPECT_EQ(g_slept_nanos.load(), 2'500'000u);
}

// --- What-if retry/backoff ---

class WhatIfRetryTest : public ::testing::Test {
 protected:
  WhatIfRetryTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 1;
    env_ = workload::MakeTpch(gen);
  }
  ~WhatIfRetryTest() override {
    SetSleepForTest(nullptr);
    FaultInjector::Global().Reset();
  }

  std::optional<workload::GeneratedWorkload> env_;
};

TEST_F(WhatIfRetryTest, PersistentFaultExhaustsRetriesDeterministically) {
  SetSleepForTest(&FakeSleep);
  g_slept_nanos.store(0);
  g_sleep_calls.store(0);
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"site\":\"whatif.cost\",\"kind\":\"error\","
                             "\"p\":1.0}")
                  .ok());
  engine::WhatIfOptimizer what_if(env_->cost_model.get());
  const StatusOr<double> cost =
      what_if.TryCost(env_->workload->query(0).bound, engine::Configuration());
  ASSERT_FALSE(cost.ok());
  EXPECT_EQ(cost.status().code(), StatusCode::kUnavailable);
  const int expected_retries = what_if.retry_policy().max_attempts - 1;
  EXPECT_EQ(what_if.retry_attempts(), static_cast<uint64_t>(expected_retries));
  EXPECT_EQ(g_sleep_calls.load(), static_cast<uint64_t>(expected_retries));
  // Backoff jitter is seeded: the exact nanos slept replay bit-identically.
  const uint64_t first_run_nanos = g_slept_nanos.load();
  EXPECT_GT(first_run_nanos, 0u);
  g_slept_nanos.store(0);
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"site\":\"whatif.cost\",\"kind\":\"error\","
                             "\"p\":1.0}")
                  .ok());
  engine::WhatIfOptimizer replay(env_->cost_model.get());
  const StatusOr<double> again =
      replay.TryCost(env_->workload->query(0).bound, engine::Configuration());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(g_slept_nanos.load(), first_run_nanos);
}

TEST_F(WhatIfRetryTest, TransientFaultSucceedsAfterRetries) {
  SetSleepForTest(&FakeSleep);
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"seed\":7};"
                             "{\"site\":\"whatif.cost\",\"kind\":\"error\","
                             "\"p\":0.5}")
                  .ok());
  engine::WhatIfOptimizer what_if(env_->cost_model.get());
  engine::RetryPolicy policy;
  policy.max_attempts = 16;  // p=0.5^16: success effectively guaranteed
  what_if.set_retry_policy(policy);
  uint64_t retries = 0;
  for (size_t q = 0; q < env_->workload->size() && q < 8; ++q) {
    const StatusOr<double> cost = what_if.TryCost(
        env_->workload->query(q).bound, engine::Configuration());
    ASSERT_TRUE(cost.ok()) << cost.status().ToString();
    EXPECT_GT(*cost, 0.0);
  }
  retries = what_if.retry_attempts();
  EXPECT_GT(retries, 0u);  // a p=0.5 stream must have failed at least once
}

TEST_F(WhatIfRetryTest, CacheHitsBypassFaultInjection) {
  // Greedy enumeration carries a candidate's cost for a query that cannot
  // use the last winner over from the previous round. That cache
  // hit needs no optimizer call, so no fault can fire on it.
  const catalog::Catalog& cat = *env_->catalog;
  sql::Binder binder(env_->catalog.get(), env_->stats.get());
  auto bind = [&](const std::string& text) {
    StatusOr<sql::SelectStatement> stmt = sql::ParseSelect(text);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    StatusOr<sql::BoundQuery> bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(bound).value();
  };
  const sql::BoundQuery on_orders =
      bind("SELECT o_totalprice FROM orders WHERE o_orderkey = 99");
  const sql::BoundQuery on_part =
      bind("SELECT p_name FROM part WHERE p_partkey = 17");
  const std::vector<advisor::WeightedQuery> queries = {{&on_orders, 1.0},
                                                       {&on_part, 1.0}};
  const catalog::ColumnId orderkey = cat.ResolveColumn("orders", "o_orderkey");
  const catalog::ColumnId partkey = cat.ResolveColumn("part", "p_partkey");
  const std::vector<engine::Index> pool = {
      engine::Index(orderkey.table, {orderkey}),
      engine::Index(partkey.table, {partkey})};

  // Initial costing and round 0 make four optimizer calls; every later call
  // fails. Round 1's only candidate needs none.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"site\":\"whatif.cost\",\"kind\":\"error\","
                             "\"p\":1.0,\"after\":4}")
                  .ok());
  engine::WhatIfOptimizer what_if(env_->cost_model.get());
  engine::RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  what_if.set_retry_policy(no_retry);
  const advisor::EnumerationResult result = advisor::GreedyEnumerate(
      what_if, queries, pool, /*max_indexes=*/2, /*storage_budget_bytes=*/0,
      cat);
  EXPECT_EQ(result.stop_reason, StopReason::kComplete);
  EXPECT_EQ(result.configuration.size(), 2u);
  EXPECT_EQ(what_if.optimizer_calls(), 4u);
  EXPECT_EQ(what_if.cache_hits(), 1u);
  EXPECT_EQ(FaultInjector::Global().injected(), 0u);
}

TEST_F(WhatIfRetryTest, ExpiredBudgetFailsFastWithoutOptimizerWork) {
  engine::WhatIfOptimizer what_if(env_->cost_model.get());
  const TimeBudget expired = TimeBudget::After(0.0);
  const StatusOr<double> cost = what_if.TryCost(
      env_->workload->query(0).bound, engine::Configuration(), expired);
  ASSERT_FALSE(cost.ok());
  EXPECT_EQ(cost.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(what_if.optimizer_calls(), 0u);
}

// --- Pipeline-level truncation: compression, tuning, evaluation ---

class PipelineBudgetTest : public ::testing::Test {
 protected:
  PipelineBudgetTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 2;
    env_ = workload::MakeTpch(gen);
    for (size_t i = 0; i < env_->workload->size(); ++i) {
      queries_.push_back({&env_->workload->query(i).bound, 1.0});
    }
  }
  ~PipelineBudgetTest() override {
    SetMonotonicClockForTest(nullptr);
    FaultInjector::Global().Reset();
    InstallAmbientBudget(TimeBudget());
  }

  std::optional<workload::GeneratedWorkload> env_;
  std::vector<advisor::WeightedQuery> queries_;
};

/// Both selection algorithms share one greedy loop, which polls the budget
/// once per round; the two budget cases below run under each.
constexpr core::SelectionAlgorithm kAlgorithms[] = {
    core::SelectionAlgorithm::kSummaryFeatures,
    core::SelectionAlgorithm::kAllPairs};

TEST_F(PipelineBudgetTest, CompressUnderExpiredBudgetReturnsValidPrefix) {
  for (const core::SelectionAlgorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(static_cast<int>(algorithm));
    core::IsumOptions options;
    options.algorithm = algorithm;
    options.budget = TimeBudget::After(0.0);
    const workload::CompressedWorkload out =
        core::Isum(&*env_->workload, options).Compress(10);
    EXPECT_EQ(out.stop_reason, StopReason::kDeadline);
    EXPECT_TRUE(out.entries.empty());  // expired before the first round
  }
}

TEST_F(PipelineBudgetTest, CompressDeadlineMidSelectionKeepsPrefix) {
  for (const core::SelectionAlgorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(static_cast<int>(algorithm));
    // Fake clock: each greedy round checks the budget once, so advancing
    // the clock past the deadline after N checks yields exactly N
    // selections.
    SetMonotonicClockForTest(&FakeNow);
    g_fake_now.store(0);
    core::IsumOptions options;
    options.algorithm = algorithm;

    // Baseline: the same compression unbudgeted.
    const workload::CompressedWorkload full =
        core::Isum(&*env_->workload, options).Compress(10);
    ASSERT_GT(full.entries.size(), 3u);
    EXPECT_EQ(full.stop_reason, StopReason::kComplete);

    // Budgeted run with a clock that expires after three round checks. The
    // budget is polled once per greedy round (feature extraction reads no
    // clock), so rounds 1-3 complete and round 4 stops.
    options.budget = TimeBudget(Deadline::AtNanos(1));
    static std::atomic<int> checks{0};
    checks.store(0);
    SetMonotonicClockForTest(+[]() -> uint64_t {
      return checks.fetch_add(1, std::memory_order_relaxed) < 3 ? 0u : 10u;
    });
    const workload::CompressedWorkload truncated =
        core::Isum(&*env_->workload, options).Compress(10);
    EXPECT_EQ(truncated.stop_reason, StopReason::kDeadline);
    ASSERT_EQ(truncated.entries.size(), 3u);
    // The truncated result is a prefix of the full greedy selection.
    for (size_t i = 0; i < truncated.entries.size(); ++i) {
      EXPECT_EQ(truncated.entries[i].query_index,
                full.entries[i].query_index);
    }
  }
}

TEST_F(PipelineBudgetTest, CancellationStopsCompressionWithStopReason) {
  const CancellationToken token = CancellationToken::Cancellable();
  token.Cancel();
  core::IsumOptions options;
  options.budget = TimeBudget(Deadline(), token);
  const workload::CompressedWorkload out =
      core::Isum(&*env_->workload, options).Compress(10);
  EXPECT_EQ(out.stop_reason, StopReason::kCancelled);
  EXPECT_TRUE(out.entries.empty());
}

TEST_F(PipelineBudgetTest, TuneWithSmallBudgetReturnsPromptlyTagged) {
  // The acceptance bar: a 10ms budget returns well within ~2x of the budget
  // (we allow generous CI slack but assert way under a second) and tags the
  // result with stop_reason=deadline while staying internally valid.
  advisor::TuningOptions options;
  options.max_indexes = 20;
  options.budget = TimeBudget::After(0.010);
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const uint64_t start = MonotonicNanos();
  const advisor::TuningResult result = advisor.Tune(queries_, options);
  const double elapsed = static_cast<double>(MonotonicNanos() - start) * 1e-9;
  EXPECT_LT(elapsed, 1.0);
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
  EXPECT_LE(result.final_cost, result.initial_cost + 1e-9);
}

TEST_F(PipelineBudgetTest, TuneWithTruncatedSelectionIsTagged) {
  // Fake clock: 0 for the first 40 reads, then 60 for good. The run's
  // deadline is 100, so candidate selection (deadline 50: half the budget)
  // is cut short within its first queries, while enumeration over the
  // resulting small pool never sees its own deadline and runs to the end.
  // The pool missed candidates, so the run is still a deadline stop.
  static std::atomic<int> reads{0};
  reads.store(0);
  SetMonotonicClockForTest(+[]() -> uint64_t {
    return reads.fetch_add(1, std::memory_order_relaxed) < 40 ? 0u : 60u;
  });
  advisor::TuningOptions options;
  options.max_indexes = 20;
  options.budget = TimeBudget(Deadline::AtNanos(100));
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult result = advisor.Tune(queries_, options);
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
  EXPECT_LE(result.final_cost, result.initial_cost + 1e-9);
}

TEST_F(PipelineBudgetTest, TuneUnlimitedBudgetIsComplete) {
  advisor::TuningOptions options;
  options.max_indexes = 4;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult result = advisor.Tune(queries_, options);
  EXPECT_EQ(result.stop_reason, StopReason::kComplete);
  EXPECT_EQ(result.retry_attempts, 0u);
}

TEST_F(PipelineBudgetTest, DexterAdvisorHonorsCancellation) {
  const CancellationToken token = CancellationToken::Cancellable();
  token.Cancel();
  advisor::DexterOptions options;
  options.budget = TimeBudget(Deadline(), token);
  advisor::DexterStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult result = advisor.Tune(queries_, options);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(result.configuration.size(), 0u);
}

TEST_F(PipelineBudgetTest, AmbientBudgetReachesCompressionEntryPoints) {
  InstallAmbientBudget(TimeBudget::After(0.0));
  const workload::CompressedWorkload out =
      core::Isum(&*env_->workload).Compress(10);
  EXPECT_EQ(out.stop_reason, StopReason::kDeadline);
  InstallAmbientBudget(TimeBudget());
}

TEST_F(PipelineBudgetTest, RunPipelinePropagatesStopReason) {
  // Compression truncation is reported even when tuning completes.
  workload::CompressedWorkload compressed =
      core::Isum(&*env_->workload).Compress(4);
  compressed.stop_reason = StopReason::kDeadline;
  advisor::TuningOptions options;
  options.max_indexes = 2;
  const eval::EvaluationResult result =
      eval::RunPipeline(*env_->workload, compressed,
                        eval::MakeDtaTuner(*env_->workload, options), "ISUM");
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(result.tuning.stop_reason, StopReason::kComplete);
}

TEST_F(PipelineBudgetTest, CompressionReplayIsBitIdenticalUnderFixedSeed) {
  const std::string spec =
      "{\"seed\":1234};"
      "{\"site\":\"compress.select\",\"kind\":\"error\",\"p\":0.2}";
  ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
  const workload::CompressedWorkload a =
      core::Isum(&*env_->workload).Compress(10);
  ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
  const workload::CompressedWorkload b =
      core::Isum(&*env_->workload).Compress(10);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].query_index, b.entries[i].query_index);
    EXPECT_EQ(a.entries[i].weight, b.entries[i].weight);  // bit-identical
  }
}

TEST_F(PipelineBudgetTest, DisarmedFaultsLeaveOutputBitIdentical) {
  const workload::CompressedWorkload clean =
      core::Isum(&*env_->workload).Compress(10);
  // Arm, run under faults, disarm: the clean output must be reproduced
  // exactly afterwards (no hidden state perturbs the algorithms).
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"site\":\"compress.select\",\"kind\":\"error\","
                             "\"p\":0.5}")
                  .ok());
  (void)core::Isum(&*env_->workload).Compress(10);
  FaultInjector::Global().Reset();
  const workload::CompressedWorkload again =
      core::Isum(&*env_->workload).Compress(10);
  EXPECT_EQ(again.stop_reason, StopReason::kComplete);
  ASSERT_EQ(again.entries.size(), clean.entries.size());
  for (size_t i = 0; i < clean.entries.size(); ++i) {
    EXPECT_EQ(again.entries[i].query_index, clean.entries[i].query_index);
    EXPECT_EQ(again.entries[i].weight, clean.entries[i].weight);
  }
}

}  // namespace
}  // namespace isum
