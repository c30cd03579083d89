// Bit-identity of the sharded all-pairs greedy selection: thread count must
// never change which queries are selected nor the recorded benefits (the
// AllPairsGreedySelect contract; same discipline as the ThreadPool reduction
// tests). Runs under the TSan CI job (filter: ParallelSelect*).

#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "common/thread_pool.h"
#include "core/isum.h"
#include "workload/workload_factory.h"

namespace isum::core {
namespace {

class ParallelSelectTest : public ::testing::Test {
 protected:
  ParallelSelectTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 3;
    env_ = workload::MakeTpch(gen);
  }

  const workload::Workload& W() { return *env_->workload; }

  CompressionState State() {
    return CompressionState(W(), {}, UtilityMode::kCostOnly);
  }

  std::optional<workload::GeneratedWorkload> env_;
};

/// Benefits compared as raw bytes: bit-identical, not just approximately
/// equal.
void ExpectBitIdentical(const SelectionResult& a, const SelectionResult& b) {
  ASSERT_EQ(a.selected.size(), b.selected.size());
  EXPECT_EQ(a.selected, b.selected);
  ASSERT_EQ(a.selection_benefits.size(), b.selection_benefits.size());
  EXPECT_EQ(std::memcmp(a.selection_benefits.data(),
                        b.selection_benefits.data(),
                        a.selection_benefits.size() * sizeof(double)),
            0);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
}

TEST_F(ParallelSelectTest, SerialAndThreadedSelectionsBitIdentical) {
  CompressionState serial_state = State();
  const SelectionResult serial = AllPairsGreedySelect(
      serial_state, 12, UpdateStrategy::kUtilityAndFeatureZero);
  ASSERT_EQ(serial.selected.size(), 12u);

  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    CompressionState state = State();
    const SelectionResult threaded =
        AllPairsGreedySelect(state, 12, UpdateStrategy::kUtilityAndFeatureZero,
                             TimeBudget(), &pool);
    ExpectBitIdentical(serial, threaded);
  }
}

TEST_F(ParallelSelectTest, BitIdenticalAcrossUpdateStrategies) {
  for (UpdateStrategy strategy :
       {UpdateStrategy::kUtilityOnly, UpdateStrategy::kUtilityAndWeightSubtract,
        UpdateStrategy::kNone}) {
    CompressionState serial_state = State();
    const SelectionResult serial =
        AllPairsGreedySelect(serial_state, 6, strategy);
    ThreadPool pool(4);
    CompressionState state = State();
    const SelectionResult threaded =
        AllPairsGreedySelect(state, 6, strategy, TimeBudget(), &pool);
    ExpectBitIdentical(serial, threaded);
  }
}

TEST_F(ParallelSelectTest, IsumNumThreadsOptionMatchesSerial) {
  IsumOptions serial_options;
  serial_options.algorithm = SelectionAlgorithm::kAllPairs;
  IsumOptions threaded_options = serial_options;
  threaded_options.num_threads = 8;

  const workload::CompressedWorkload serial =
      Isum(&W(), serial_options).Compress(10);
  const workload::CompressedWorkload threaded =
      Isum(&W(), threaded_options).Compress(10);
  ASSERT_EQ(serial.entries.size(), threaded.entries.size());
  for (size_t i = 0; i < serial.entries.size(); ++i) {
    EXPECT_EQ(serial.entries[i].query_index, threaded.entries[i].query_index);
    // Raw bytes of index, weight and benefit: bit-identical.
    EXPECT_EQ(std::memcmp(&serial.entries[i], &threaded.entries[i],
                          sizeof(serial.entries[i])),
              0);
  }
  EXPECT_EQ(serial.stop_reason, threaded.stop_reason);
}

TEST_F(ParallelSelectTest, ExpiredBudgetReturnsPrefixWithStopReason) {
  ThreadPool pool(4);
  CompressionState state = State();
  const SelectionResult result =
      AllPairsGreedySelect(state, 8, UpdateStrategy::kUtilityAndFeatureZero,
                           TimeBudget::After(0.0), &pool);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
}

}  // namespace
}  // namespace isum::core
