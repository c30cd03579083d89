// Concurrency soak tests for the robustness layer: many threads hammering
// fault sites, budgeted what-if calls, and early-exiting ParallelFor
// batches. Named FaultStress* so the CI TSan job can select them; every
// test must be free of deadlocks, data races, and counter corruption.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "core/isum.h"
#include "engine/what_if.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

void NoSleep(uint64_t) {}

class FaultStressTest : public ::testing::Test {
 protected:
  FaultStressTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 2;
    env_ = workload::MakeTpch(gen);
    for (size_t i = 0; i < env_->workload->size(); ++i) {
      queries_.push_back({&env_->workload->query(i).bound, 1.0});
    }
    // Latency faults and retry backoffs must not slow the soak down.
    SetSleepForTest(&NoSleep);
  }
  ~FaultStressTest() override {
    SetSleepForTest(nullptr);
    FaultInjector::Global().Reset();
    InstallAmbientBudget(TimeBudget());
  }

  std::optional<workload::GeneratedWorkload> env_;
  std::vector<advisor::WeightedQuery> queries_;
};

TEST_F(FaultStressTest, ConcurrentTryCostUnderMixedFaults) {
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"seed\":11};"
                             "{\"site\":\"whatif.cost\",\"kind\":\"error\","
                             "\"p\":0.3};"
                             "{\"site\":\"*\",\"kind\":\"latency\",\"p\":0.2,"
                             "\"ms\":0.1}")
                  .ok());
  engine::WhatIfOptimizer what_if(env_->cost_model.get());
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 200;
  std::atomic<uint64_t> ok_calls{0};
  std::atomic<uint64_t> unavailable{0};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const size_t q = static_cast<size_t>(t * kItersPerThread + i) %
                         env_->workload->size();
        const StatusOr<double> cost = what_if.TryCost(
            env_->workload->query(q).bound, engine::Configuration());
        if (cost.ok()) {
          ok_calls.fetch_add(1, std::memory_order_relaxed);
          EXPECT_GT(*cost, 0.0);
        } else if (cost.status().code() == StatusCode::kUnavailable) {
          unavailable.fetch_add(1, std::memory_order_relaxed);
        } else {
          unexpected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(ok_calls.load() + unavailable.load(),
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  // Faults fired: the p=0.3 error rule guarantees misses saw failures
  // (first-touch of each query key cannot be a cache hit).
  EXPECT_GT(FaultInjector::Global().injected(), 0u);
  // Counter sanity: every kUnavailable return burned a full retry budget.
  const uint64_t per_failure =
      static_cast<uint64_t>(what_if.retry_policy().max_attempts - 1);
  EXPECT_GE(what_if.retry_attempts(), unavailable.load() * per_failure);
}

TEST_F(FaultStressTest, ConcurrentConfigureWhileInjecting) {
  // Reconfiguring mid-flight must never crash, deadlock or race (the
  // config pointer is swapped under a mutex); decisions just come from
  // whichever config is live.
  std::atomic<bool> stop{false};
  std::thread configurer([&] {
    int flip = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const char* spec =
          (flip++ & 1) != 0
              ? "{\"site\":\"stress.site\",\"kind\":\"error\",\"p\":1.0}"
              : "{\"site\":\"stress.site\",\"kind\":\"latency\",\"p\":1.0,"
                "\"ms\":0.01}";
      ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
    }
  });
  std::vector<std::thread> injectors;
  for (int t = 0; t < 4; ++t) {
    injectors.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        // The stress is the call itself; the verdict is asserted after the
        // threads quiesce. NOLINTNEXTLINE(isum-unchecked-status)
        (void)CheckFault("stress.site");
      }
    });
  }
  for (std::thread& t : injectors) t.join();
  stop.store(true);
  configurer.join();
  // Configure() zeroes the injected counter, so assert only after the
  // configurer quiesced: the surviving config injects deterministically.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"site\":\"stress.site\",\"kind\":\"error\","
                             "\"p\":1.0}")
                  .ok());
  EXPECT_FALSE(CheckFault("stress.site").ok());
  EXPECT_EQ(FaultInjector::Global().injected(), 1u);
}

TEST_F(FaultStressTest, ParallelForCancellationDrains) {
  ThreadPool pool(4);
  const CancellationToken token = CancellationToken::Cancellable();
  std::atomic<size_t> started{0};
  constexpr size_t kTasks = 10'000;
  // Cancel from inside the batch: later indexes must be skipped and
  // ParallelFor must still return (no deadlock on the drain path).
  pool.ParallelFor(kTasks, [&](size_t i) {
    started.fetch_add(1, std::memory_order_relaxed);
    if (i == 5) token.Cancel();
  }, token);
  EXPECT_TRUE(token.cancelled());
  EXPECT_LT(started.load(), kTasks);  // the tail was skipped, not run
  // The pool stays usable for the next (uncancelled) batch.
  std::atomic<size_t> second{0};
  pool.ParallelFor(100, [&](size_t) {
    second.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(second.load(), 100u);
}

TEST_F(FaultStressTest, ParallelForPreCancelledRunsNothing) {
  ThreadPool pool(4);
  const CancellationToken token = CancellationToken::Cancellable();
  token.Cancel();
  std::atomic<size_t> ran{0};
  pool.ParallelFor(1000, [&](size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  }, token);
  // A fired token may let a few in-flight claims through, but the batch
  // must drain almost immediately.
  EXPECT_LE(ran.load(), pool.num_threads());
}

TEST_F(FaultStressTest, ParallelTuneUnderFaultsStaysValid) {
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"seed\":29};"
                             "{\"site\":\"whatif.cost\",\"kind\":\"error\","
                             "\"p\":0.05}")
                  .ok());
  advisor::TuningOptions options;
  options.max_indexes = 6;
  options.num_threads = 4;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult result = advisor.Tune(queries_, options);
  // Whatever the stop reason, the result must be internally consistent:
  // final cost never exceeds initial, configuration within bounds.
  EXPECT_LE(result.final_cost, result.initial_cost + 1e-9);
  EXPECT_LE(result.configuration.size(),
            static_cast<size_t>(options.max_indexes));
}

TEST_F(FaultStressTest, ConcurrentCompressionsUnderAmbientBudget) {
  // Several compressions race against one ambient budget; each must
  // return a valid (possibly truncated) result without interfering.
  InstallAmbientBudget(TimeBudget::After(0.005));
  std::vector<workload::CompressedWorkload> results(6);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      results[t] = core::Isum(&*env_->workload).Compress(10);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const workload::CompressedWorkload& out : results) {
    EXPECT_LE(out.entries.size(), 10u);
    for (const auto& entry : out.entries) {
      EXPECT_LT(entry.query_index, env_->workload->size());
    }
  }
}

TEST_F(FaultStressTest, BudgetedTryCostStormNeverHangs) {
  // Budgets expiring mid-retry across threads: every call must return
  // promptly with OK, kUnavailable, or kDeadlineExceeded — nothing else,
  // and nothing may block on a backoff sleep past the deadline.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"seed\":3};"
                             "{\"site\":\"whatif.cost\",\"kind\":\"error\","
                             "\"p\":0.5}")
                  .ok());
  engine::WhatIfOptimizer what_if(env_->cost_model.get());
  std::atomic<uint64_t> bad_codes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        // Odd iterations run against an already-expired budget.
        const TimeBudget budget =
            (i & 1) != 0 ? TimeBudget::After(0.0) : TimeBudget();
        const size_t q =
            static_cast<size_t>(t * 100 + i) % env_->workload->size();
        const StatusOr<double> cost =
            what_if.TryCost(env_->workload->query(q).bound,
                            engine::Configuration(), budget);
        if (!cost.ok() &&
            cost.status().code() != StatusCode::kUnavailable &&
            cost.status().code() != StatusCode::kDeadlineExceeded) {
          bad_codes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad_codes.load(), 0u);
}

TEST_F(FaultStressTest, ReplayDeterminismSurvivesThreadCount) {
  // The fault decision stream is per-site, not per-thread: single-threaded
  // and multi-threaded tuning under the same seed may interleave faults
  // differently, but re-running the same (seed, thread-count) pair must
  // reproduce the configuration bit-identically.
  const std::string spec =
      "{\"seed\":77};"
      "{\"site\":\"whatif.cost\",\"kind\":\"error\",\"p\":0.1}";
  advisor::TuningOptions options;
  options.max_indexes = 4;
  options.num_threads = 1;  // deterministic fault->call assignment
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
  const advisor::TuningResult first = advisor.Tune(queries_, options);
  ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
  advisor::DtaStyleAdvisor replay(env_->cost_model.get());
  const advisor::TuningResult second = replay.Tune(queries_, options);
  EXPECT_EQ(first.configuration.indexes(), second.configuration.indexes());
  EXPECT_EQ(first.stop_reason, second.stop_reason);
  EXPECT_EQ(first.final_cost, second.final_cost);  // bit-identical
}

}  // namespace
}  // namespace isum
