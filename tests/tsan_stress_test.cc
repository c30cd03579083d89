// Race-hunting stress tests, written to be run under
// -DISUM_SANITIZE=thread (the CI `tsan` job) but cheap enough to stay in the
// default suite. They hammer the two concurrency primitives the library's
// determinism story rests on: ThreadPool::ParallelFor and the shared
// what-if optimizer's counters.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "catalog/schema_builder.h"
#include "common/thread_pool.h"
#include "engine/what_if.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats/data_generator.h"

namespace isum {
namespace {

TEST(ThreadPoolStress, ManySmallBatchesBackToBack) {
  ThreadPool pool(8);
  std::atomic<uint64_t> sum{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.ParallelFor(64, [&](size_t i) { sum.fetch_add(i + 1); });
  }
  EXPECT_EQ(sum.load(), 200ull * 64 * 65 / 2);
}

TEST(ThreadPoolStress, IndependentPoolsRunConcurrently) {
  // Distinct pools must not share batch state; drive four of them from four
  // client threads at once.
  constexpr int kPools = 4;
  std::vector<std::thread> clients;
  std::atomic<uint64_t> grand_total{0};
  for (int p = 0; p < kPools; ++p) {
    clients.emplace_back([&] {
      ThreadPool pool(3);
      uint64_t local = 0;
      std::vector<uint64_t> slots(500);
      for (int batch = 0; batch < 20; ++batch) {
        pool.ParallelFor(slots.size(),
                         [&](size_t i) { slots[i] = i * i; });
        for (uint64_t v : slots) local += v;
      }
      grand_total.fetch_add(local);
    });
  }
  for (auto& t : clients) t.join();
  uint64_t expected_one = 0;
  for (uint64_t i = 0; i < 500; ++i) expected_one += i * i;
  EXPECT_EQ(grand_total.load(), expected_one * 20 * kPools);
}

TEST(ThreadPoolStress, WriteToDisjointSlotsWithoutAtomics) {
  // ParallelFor's completion handshake must publish plain (non-atomic)
  // writes made by workers; TSan verifies the happens-before edge.
  ThreadPool pool(8);
  std::vector<double> slots(10'000);
  pool.ParallelFor(slots.size(),
                   [&](size_t i) { slots[i] = static_cast<double>(i) * 0.5; });
  double sum = 0;
  for (double v : slots) sum += v;
  EXPECT_DOUBLE_EQ(sum, 0.5 * (10'000.0 - 1) * 10'000.0 / 2);
}

class WhatIfStressTest : public ::testing::Test {
 protected:
  WhatIfStressTest() : stats_(&cat_), cost_model_(&cat_, &stats_) {
    catalog::SchemaBuilder b(&cat_);
    b.Table("t", 5'000'000)
        .Key("id", catalog::ColumnType::kInt)
        .Col("a", catalog::ColumnType::kInt)
        .Col("b", catalog::ColumnType::kInt);
    stats::DataGenerator dg;
    Rng rng(7);
    auto uniform = [&](const char* c, uint64_t distinct, double hi) {
      stats::ColumnDataSpec spec;
      spec.distribution = stats::Distribution::kUniform;
      spec.distinct = distinct;
      spec.domain_min = 0;
      spec.domain_max = hi;
      const catalog::ColumnId id = cat_.ResolveColumn("t", c);
      stats_.SetStats(id,
                      dg.Generate(spec, cat_.table(id.table).row_count(), rng));
    };
    stats::ColumnDataSpec key_spec;
    key_spec.distribution = stats::Distribution::kKey;
    const catalog::ColumnId id = cat_.ResolveColumn("t", "id");
    stats_.SetStats(
        id, dg.Generate(key_spec, cat_.table(id.table).row_count(), rng));
    uniform("a", 100'000, 100'000);
    uniform("b", 1'000, 1'000);
  }

  sql::BoundQuery Bind(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    sql::Binder binder(&cat_, &stats_);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(bound).value();
  }

  catalog::Catalog cat_;
  stats::StatsManager stats_;
  engine::CostModel cost_model_;
};

TEST_F(WhatIfStressTest, ConcurrentCostingIsRaceFreeAndConsistent) {
  std::vector<sql::BoundQuery> queries;
  queries.push_back(Bind("SELECT a FROM t WHERE a < 100"));
  queries.push_back(Bind("SELECT b FROM t WHERE b = 5"));
  queries.push_back(Bind("SELECT a, b FROM t WHERE a < 500 AND b = 9"));

  std::vector<engine::Configuration> configs;
  configs.emplace_back();  // empty
  engine::Configuration c1;
  c1.Add(engine::Index(0, {cat_.ResolveColumn("t", "a")}));
  configs.push_back(c1);
  engine::Configuration c2;
  c2.Add(engine::Index(0, {cat_.ResolveColumn("t", "b")},
                       {cat_.ResolveColumn("t", "a")}));
  configs.push_back(c2);

  engine::WhatIfOptimizer what_if(&cost_model_);

  // Reference costs, computed single-threaded.
  std::vector<double> reference;
  for (const auto& q : queries) {
    for (const auto& c : configs) reference.push_back(what_if.Cost(q, c));
  }
  what_if.ResetCounters();

  // 8 threads repeatedly cost every (query, config) pair; every observed
  // cost must equal the reference.
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          for (size_t ci = 0; ci < configs.size(); ++ci) {
            const double got = what_if.Cost(queries[qi], configs[ci]);
            if (got != reference[qi * configs.size() + ci]) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(what_if.optimizer_calls(), 0u);
}

TEST_F(WhatIfStressTest, ResetCountersZeroesEveryCounter) {
  const sql::BoundQuery q = Bind("SELECT a FROM t WHERE a < 100");
  engine::WhatIfOptimizer what_if(&cost_model_);
  what_if.Cost(q, engine::Configuration());
  what_if.CountCarriedOver(2);  // answers a caller reused
  EXPECT_EQ(what_if.optimizer_calls(), 1u);
  EXPECT_EQ(what_if.cache_hits(), 2u);
  EXPECT_GE(what_if.optimizer_seconds(), 0.0);

  // ResetCounters requires quiesced callers (see what_if.h); here the test
  // thread is the only caller, so the reset must be exact.
  what_if.ResetCounters();
  EXPECT_EQ(what_if.optimizer_calls(), 0u);
  EXPECT_EQ(what_if.cache_hits(), 0u);
  EXPECT_EQ(what_if.optimizer_seconds(), 0.0);

  what_if.Cost(q, engine::Configuration());
  EXPECT_EQ(what_if.optimizer_calls(), 1u);
  EXPECT_EQ(what_if.cache_hits(), 0u);
}

TEST_F(WhatIfStressTest, CountersStayExactUnderConcurrency) {
  // Every Cost() invocation and every carried-over answer increments exactly
  // one of {optimizer_calls, cache_hits}, so their sum must equal the number
  // of requests even when threads race on both counters.
  std::vector<sql::BoundQuery> queries;
  queries.push_back(Bind("SELECT a FROM t WHERE a < 100"));
  queries.push_back(Bind("SELECT b FROM t WHERE b = 5"));
  engine::WhatIfOptimizer what_if(&cost_model_);
  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& q : queries) {
          what_if.Cost(q, engine::Configuration());
          what_if.CountCarriedOver(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(what_if.optimizer_calls(),
            static_cast<uint64_t>(kThreads) * kRounds * queries.size());
  EXPECT_EQ(what_if.optimizer_calls() + what_if.cache_hits(),
            2 * static_cast<uint64_t>(kThreads) * kRounds * queries.size());
}

}  // namespace
}  // namespace isum
