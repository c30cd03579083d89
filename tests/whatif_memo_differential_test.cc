// Differential oracle for the what-if memo (engine/what_if.h): greedy
// enumeration through the memoized WhatIfOptimizer, at 1 and 4 threads,
// must recommend exactly what a naive enumerator recommends when it costs
// every request with a fresh engine::Optimizer — same indexes in the same
// order, bit-identical initial and final workload cost. Swept over seeded
// TPC-H-, TPC-DS- and Real-M-like workloads.

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "advisor/candidate_generation.h"
#include "advisor/enumerator.h"
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
};

/// GreedyEnumerate's contract, spelled out without a memo: each round costs
/// every unused candidate against every query on its table with a fresh
/// optimizer, and adds the best strict improvement (ties to the lowest pool
/// position). Floating-point sums run in the same order as the enumerator's.
Recommendation NaiveGreedy(const engine::CostModel* cost_model,
                           const std::vector<advisor::WeightedQuery>& queries,
                           const std::vector<engine::Index>& pool) {
  auto cost = [&](const sql::BoundQuery& q, const engine::Configuration& c) {
    return engine::Optimizer(cost_model).Cost(q, c);
  };
  Recommendation out;
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

struct Case {
  const char* workload;
  uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << " seed " << c.seed;
}

class WhatIfMemoDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(WhatIfMemoDifferentialTest, MemoizedEnumerationMatchesUncached) {
  workload::GeneratorOptions gen;
  gen.seed = GetParam().seed;
  gen.instances_per_template = 2;
  gen.max_templates = 24;
  gen.instance_skew = 1.0;
  const workload::GeneratedWorkload env =
      workload::MakeWorkloadByName(GetParam().workload, gen);
  ASSERT_GT(env.workload->size(), 0u);

  std::vector<advisor::WeightedQuery> queries;
  std::vector<engine::Index> pool;
  std::unordered_set<engine::Index> seen;
  for (size_t i = 0; i < env.workload->size(); ++i) {
    const sql::BoundQuery& q = env.workload->query(i).bound;
    queries.push_back({&q, 1.0 + static_cast<double>(i % 3)});
    for (engine::Index& index : advisor::GenerateCandidates(q, *env.stats)) {
      if (pool.size() < kMaxPool && seen.insert(index).second) {
        pool.push_back(std::move(index));
      }
    }
  }
  ASSERT_GT(pool.size(), 1u);

  const Recommendation want =
      NaiveGreedy(env.cost_model.get(), queries, pool);
  ASSERT_FALSE(want.indexes.empty());
  for (const int threads : {1, 4}) {
    engine::WhatIfOptimizer what_if(env.cost_model.get());
    const advisor::EnumerationResult got = advisor::GreedyEnumerate(
        what_if, queries, pool, kMaxIndexes, /*storage_budget_bytes=*/0,
        *env.catalog, TimeBudget(), threads);
    EXPECT_EQ(got.stop_reason, StopReason::kComplete);
    EXPECT_EQ(got.configuration.indexes(), want.indexes)
        << "threads " << threads;
    EXPECT_EQ(Bits(got.initial_cost), Bits(want.initial_cost))
        << "threads " << threads;
    EXPECT_EQ(Bits(got.final_cost), Bits(want.final_cost))
        << "threads " << threads;
    // The memo must have absorbed some requests, or this compares nothing.
    EXPECT_GT(what_if.cache_hits(), 0u) << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WhatIfMemoDifferential, WhatIfMemoDifferentialTest,
    ::testing::Values(Case{"tpch", 1}, Case{"tpch", 2}, Case{"tpch", 3},
                      Case{"tpcds", 1}, Case{"tpcds", 2}, Case{"tpcds", 3},
                      // Real-M's 474-table schema dominates its runtime.
                      Case{"realm", 1}, Case{"realm", 2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.workload) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace isum
