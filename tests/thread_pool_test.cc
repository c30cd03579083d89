// Tests for the thread pool and parallel candidate evaluation determinism.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>

#include "advisor/advisor.h"
#include "common/thread_pool.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(257);
  pool.ParallelFor(257, [&](size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 10; ++batch) {
    pool.ParallelFor(50, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPool, SingleThreadWorks) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.ParallelFor(100, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, ReducedResultsBitIdenticalAcrossThreadCounts) {
  // Determinism contract from the header: workers fill disjoint slots and
  // the caller reduces by index, so the reduced value must be bit-identical
  // for any thread count — including non-associative float accumulation.
  constexpr size_t kItems = 10'000;
  auto run = [&](size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> slots(kItems);
    pool.ParallelFor(kItems, [&](size_t i) {
      // Deliberately rounding-sensitive per-item work.
      const double x = static_cast<double>(i) + 1.0;
      slots[i] = 1.0 / x + 1e-9 * x * x;
    });
    double reduced = 0.0;
    for (double v : slots) reduced += v;  // fixed order: by index
    return reduced;
  };
  const double r1 = run(1);
  const double r2 = run(2);
  const double r8 = run(8);
  // Bit-identical, not just approximately equal.
  EXPECT_EQ(std::memcmp(&r1, &r2, sizeof(double)), 0)
      << r1 << " vs " << r2;
  EXPECT_EQ(std::memcmp(&r1, &r8, sizeof(double)), 0)
      << r1 << " vs " << r8;
}

TEST(ParallelAdvisor, SameRecommendationForAnyThreadCount) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 2;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  std::vector<advisor::WeightedQuery> queries;
  for (size_t i = 0; i < env.workload->size(); ++i) {
    queries.push_back({&env.workload->query(i).bound, 1.0});
  }
  advisor::DtaStyleAdvisor advisor(env.cost_model.get());

  advisor::TuningOptions serial;
  serial.max_indexes = 10;
  serial.num_threads = 1;
  advisor::TuningOptions parallel = serial;
  parallel.num_threads = 4;

  const auto a = advisor.Tune(queries, serial);
  const auto b = advisor.Tune(queries, parallel);
  EXPECT_EQ(a.configuration.indexes(), b.configuration.indexes());
  EXPECT_NEAR(a.final_cost, b.final_cost, a.final_cost * 1e-9);
  ASSERT_EQ(a.configuration.size(), b.configuration.size());
  for (size_t i = 0; i < a.configuration.size(); ++i) {
    EXPECT_TRUE(a.configuration.indexes()[i] == b.configuration.indexes()[i]);
  }
}

}  // namespace
}  // namespace isum
