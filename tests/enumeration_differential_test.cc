// Differential oracle for delta-costed greedy enumeration
// (advisor/enumerator.h): GreedyEnumerate, at 1 and 4 threads, must
// recommend exactly what a naive enumerator recommends when it re-costs
// every (candidate, query) request of every round with a fresh
// engine::Optimizer — same indexes in the same order, bit-identical initial
// and final workload cost — and account for every naive request as an
// optimizer call, a carried-over answer or a request skipped because the
// query cannot use the candidate (engine::Optimizer::CanUse). Swept over
// seeded TPC-H-, TPC-DS- and Real-M-like workloads, plus a case where an
// injected what-if fault makes candidates fail in one round and succeed in
// the next.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "advisor/candidate_generation.h"
#include "advisor/enumerator.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

constexpr int kMaxIndexes = 6;
constexpr size_t kMaxPool = 40;

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

struct Recommendation {
  std::vector<engine::Index> indexes;
  double initial_cost = 0.0;
  double final_cost = 0.0;
  /// What-if requests the naive enumerator made (one optimizer call each).
  uint64_t requests = 0;
};

/// GreedyEnumerate's contract, spelled out without delta costing: each
/// round costs every unused candidate against every query on its table with
/// a fresh optimizer, and adds the best strict improvement (ties to the
/// lowest pool position). Floating-point sums run in the same order as the
/// enumerator's.
Recommendation NaiveGreedy(const engine::CostModel* cost_model,
                           const std::vector<advisor::WeightedQuery>& queries,
                           const std::vector<engine::Index>& pool) {
  Recommendation out;
  auto cost = [&](const sql::BoundQuery& q, const engine::Configuration& c) {
    ++out.requests;
    return engine::Optimizer(cost_model).Cost(q, c);
  };
  engine::Configuration config;
  std::vector<double> current(queries.size());
  double total = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    current[i] = cost(*queries[i].query, config);
    total += queries[i].weight * current[i];
  }
  out.initial_cost = total;
  std::vector<bool> used(pool.size(), false);
  while (static_cast<int>(config.size()) < kMaxIndexes) {
    size_t best = pool.size();
    double best_improvement = 0.0;
    std::vector<double> best_costs;
    for (size_t p = 0; p < pool.size(); ++p) {
      if (used[p]) continue;
      engine::Configuration trial = config;
      trial.Add(pool[p]);
      std::vector<double> costs = current;
      double improvement = 0.0;
      for (size_t i = 0; i < queries.size(); ++i) {
        if (!queries[i].query->ReferencesTable(pool[p].table())) continue;
        costs[i] = cost(*queries[i].query, trial);
        improvement += queries[i].weight * (current[i] - costs[i]);
      }
      if (improvement > best_improvement) {
        best = p;
        best_improvement = improvement;
        best_costs = std::move(costs);
      }
    }
    if (best == pool.size()) break;
    used[best] = true;
    config.Add(pool[best]);
    current = std::move(best_costs);
    total -= best_improvement;
  }
  out.indexes = config.indexes();
  out.final_cost = total;
  return out;
}

/// A seeded workload with unit-to-three weights and a candidate pool of at
/// most kMaxPool distinct indexes, in query order.
struct Instance {
  workload::GeneratedWorkload env;
  std::vector<advisor::WeightedQuery> queries;
  std::vector<engine::Index> pool;
};

Instance MakeInstance(const char* workload_name, uint64_t seed) {
  workload::GeneratorOptions gen;
  gen.seed = seed;
  gen.instances_per_template = 2;
  gen.max_templates = 24;
  gen.instance_skew = 1.0;
  Instance instance{workload::MakeWorkloadByName(workload_name, gen), {}, {}};
  std::unordered_set<engine::Index> seen;
  for (size_t i = 0; i < instance.env.workload->size(); ++i) {
    const sql::BoundQuery& q = instance.env.workload->query(i).bound;
    instance.queries.push_back({&q, 1.0 + static_cast<double>(i % 3)});
    for (engine::Index& index :
         advisor::GenerateCandidates(q, *instance.env.stats)) {
      if (instance.pool.size() < kMaxPool && seen.insert(index).second) {
        instance.pool.push_back(std::move(index));
      }
    }
  }
  return instance;
}

struct Case {
  const char* workload;
  uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << "/" << c.seed;
}

class EnumerationDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(EnumerationDifferentialTest, MatchesNaive) {
  const Instance s = MakeInstance(GetParam().workload, GetParam().seed);
  ASSERT_GT(s.queries.size(), 0u);
  ASSERT_GT(s.pool.size(), 1u);

  const Recommendation want =
      NaiveGreedy(s.env.cost_model.get(), s.queries, s.pool);
  ASSERT_FALSE(want.indexes.empty());
  for (const int threads : {1, 4}) {
    engine::WhatIfOptimizer what_if(s.env.cost_model.get());
    const advisor::EnumerationResult got = advisor::GreedyEnumerate(
        what_if, s.queries, s.pool, kMaxIndexes, /*storage_budget_bytes=*/0,
        *s.env.catalog, TimeBudget(), threads);
    EXPECT_EQ(got.stop_reason, StopReason::kComplete);
    EXPECT_EQ(got.configuration.indexes(), want.indexes)
        << "threads " << threads;
    EXPECT_EQ(Bits(got.initial_cost), Bits(want.initial_cost))
        << "threads " << threads;
    EXPECT_EQ(Bits(got.final_cost), Bits(want.final_cost))
        << "threads " << threads;
    // Every naive request is an optimizer call, a carried-over answer or a
    // skipped one, and some must have been carried over and some skipped,
    // or this compares nothing.
    EXPECT_EQ(what_if.optimizer_calls() + what_if.cache_hits() +
                  what_if.skipped(),
              want.requests)
        << "threads " << threads;
    EXPECT_GT(what_if.cache_hits(), 0u) << "threads " << threads;
    EXPECT_GT(what_if.skipped(), 0u) << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnumerationDifferential, EnumerationDifferentialTest,
    ::testing::Values(Case{"tpch", 1}, Case{"tpch", 2}, Case{"tpch", 3},
                      Case{"tpcds", 1}, Case{"tpcds", 2}, Case{"tpcds", 3},
                      // Real-M's 474-table schema dominates its runtime.
                      Case{"realm", 1}, Case{"realm", 2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.workload) + "_seed" +
             std::to_string(info.param.seed);
    });

// --- A candidate that fails in one round is re-costed in full later ---

/// Round starts seen by the sleep hook below; at the second one (round 1)
/// the what-if fault is disarmed. SleepFn is a plain function pointer, so
/// the state lives in globals.
int g_round_starts = 0;
uint64_t g_injected_before_disarm = 0;

void DisarmAtRoundOne(uint64_t /*nanos*/) {
  if (++g_round_starts == 2) {
    g_injected_before_disarm = FaultInjector::Global().injected();
    FaultInjector::Global().Reset();
  }
}

class EnumerationFaultTest : public ::testing::Test {
 protected:
  ~EnumerationFaultTest() override {
    SetSleepForTest(nullptr);
    FaultInjector::Global().Reset();
  }
};

TEST_F(EnumerationFaultTest, CandidateFailingOneRoundIsFullyRecostedLater) {
  Instance s = MakeInstance("tpch", 1);
  ASSERT_GT(s.pool.size(), 2u);
  // Put the naive round-0 winner first, so round 0 picks it even when every
  // later candidate fails, and take the reference on that pool order.
  const Recommendation first =
      NaiveGreedy(s.env.cost_model.get(), s.queries, s.pool);
  ASSERT_FALSE(first.indexes.empty());
  const auto winner =
      std::find(s.pool.begin(), s.pool.end(), first.indexes.front());
  std::rotate(s.pool.begin(), winner, winner + 1);
  const Recommendation want =
      NaiveGreedy(s.env.cost_model.get(), s.queries, s.pool);
  ASSERT_GE(want.indexes.size(), 2u);
  ASSERT_EQ(want.indexes.front(), s.pool.front());

  // whatif.cost fails from the second query of round 0's second candidate
  // on (after initial costing and the calls for the queries that can use
  // the first candidate), so that
  // candidate fails with a partly filled cost vector and every later one
  // fails too. A latency rule on the round-start site calls the sleep hook,
  // which disarms the what-if fault when round 1 starts.
  size_t first_calls = 0;
  for (const advisor::WeightedQuery& wq : s.queries) {
    if (engine::Optimizer::CanUse(engine::Optimizer::Prepare(*wq.query),
                                  s.pool.front())) {
      ++first_calls;
    }
  }
  const uint64_t after = s.queries.size() + first_calls + 1;
  g_round_starts = 0;
  g_injected_before_disarm = 0;
  SetSleepForTest(&DisarmAtRoundOne);
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"site\":\"whatif.cost\",\"kind\":\"error\","
                             "\"p\":1.0,\"after\":" +
                             std::to_string(after) +
                             "};{\"site\":\"advisor.enumerate\",\"kind\":"
                             "\"latency\",\"p\":1.0,\"ms\":0.001}")
                  .ok());

  engine::WhatIfOptimizer what_if(s.env.cost_model.get());
  engine::RetryPolicy no_retry;
  no_retry.max_attempts = 1;  // surface the first failure
  what_if.set_retry_policy(no_retry);
  const advisor::EnumerationResult got = advisor::GreedyEnumerate(
      what_if, s.queries, s.pool, kMaxIndexes, /*storage_budget_bytes=*/0,
      *s.env.catalog, TimeBudget(), /*num_threads=*/1);

  EXPECT_GT(g_injected_before_disarm, 0u);  // round 0 did see failures
  EXPECT_GE(g_round_starts, 2);
  // A failed candidate resumed from its partial vector would carry zeros
  // (or stale costs) into round 1 and win it with a bogus improvement.
  EXPECT_EQ(got.stop_reason, StopReason::kComplete);
  EXPECT_EQ(got.configuration.indexes(), want.indexes);
  EXPECT_EQ(Bits(got.initial_cost), Bits(want.initial_cost));
  EXPECT_EQ(Bits(got.final_cost), Bits(want.final_cost));
}

}  // namespace
}  // namespace isum
