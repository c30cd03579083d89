// Empirical validation of the paper's §4.3/§5 theory: the benefit of a set
// of queries (Definitions 7–9, computed exactly by enumerating selection
// orders) and the greedy algorithm's approximation quality relative to the
// brute-force optimum (the (1 - 1/e) ≈ 0.63 bound of §5.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/benefit.h"
#include "core/greedy.h"
#include "workload/workload_factory.h"

namespace isum::core {
namespace {

constexpr UpdateStrategy kStrategy = UpdateStrategy::kUtilityAndFeatureZero;

/// Exact benefit of one order π(Q): U(Q) (original utilities) plus the
/// cumulative conditional influence over queries outside Q (Definition 8).
double SequenceBenefit(const workload::Workload& w,
                       const std::vector<size_t>& order) {
  CompressionState state(w, {}, UtilityMode::kCostOnly);
  double utility_q = 0.0;
  for (size_t q : order) utility_q += state.original_utility(q);

  std::vector<bool> in_q(w.size(), false);
  for (size_t q : order) in_q[q] = true;

  double influence = 0.0;
  for (size_t q : order) {
    for (size_t other = 0; other < w.size(); ++other) {
      if (in_q[other]) continue;  // Def 8 sums over q' outside Q
      influence += Influence(state, q, other);
    }
    state.SelectAndUpdate(q, kStrategy);
  }
  return utility_q + influence;
}

/// B(Q) = max over all orders (Definition 9). |Q| <= 4 keeps this exact.
double SetBenefit(const workload::Workload& w, std::vector<size_t> q) {
  std::sort(q.begin(), q.end());
  double best = 0.0;
  do {
    best = std::max(best, SequenceBenefit(w, q));
  } while (std::next_permutation(q.begin(), q.end()));
  return best;
}

class TheoryTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  workload::GeneratedWorkload MakeSmall(uint64_t seed) {
    workload::GeneratorOptions gen;
    gen.seed = seed;
    gen.instances_per_template = 1;
    gen.max_templates = 9;  // C(9,3)=84 subsets x 6 orders: exact is cheap
    return workload::MakeTpch(gen);
  }
};

TEST_P(TheoryTest, GreedyWithinSubmodularBoundOfOptimum) {
  workload::GeneratedWorkload env = MakeSmall(GetParam());
  const workload::Workload& w = *env.workload;
  const size_t n = w.size();
  const size_t k = 3;

  // Brute-force optimum of B over all k-subsets.
  double optimum = 0.0;
  std::vector<size_t> best_set;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      for (size_t c = b + 1; c < n; ++c) {
        const double benefit = SetBenefit(w, {a, b, c});
        if (benefit > optimum) {
          optimum = benefit;
          best_set = {a, b, c};
        }
      }
    }
  }
  ASSERT_GT(optimum, 0.0);

  // Greedy (Algorithms 1–2) on the same instance.
  CompressionState state(w, {}, UtilityMode::kCostOnly);
  const SelectionResult greedy =
      GreedySelect(state, k, SelectionAlgorithm::kAllPairs, kStrategy);
  const double greedy_benefit = SetBenefit(w, greedy.selected);

  // §5.1: worst-case (1 - 1/e) ≈ 0.632 under the stated conditions. The
  // conditions are "mild" but not guaranteed; empirically the greedy should
  // clear the bound comfortably on these instances.
  EXPECT_GE(greedy_benefit, 0.632 * optimum)
      << "greedy " << greedy_benefit << " vs optimum " << optimum;
}

TEST_P(TheoryTest, GreedyFirstPickIsSingletonOptimum) {
  // For k = 1 the greedy is exactly optimal by construction.
  workload::GeneratedWorkload env = MakeSmall(GetParam() ^ 0xABCD);
  const workload::Workload& w = *env.workload;
  CompressionState state(w, {}, UtilityMode::kCostOnly);
  const SelectionResult greedy =
      GreedySelect(state, 1, SelectionAlgorithm::kAllPairs, kStrategy);
  double best = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    best = std::max(best, SetBenefit(w, {i}));
  }
  EXPECT_NEAR(SetBenefit(w, greedy.selected), best, best * 1e-9);
}

TEST_P(TheoryTest, BenefitMonotoneUnderExtension) {
  // Theorem 1's conclusion on these instances: adding a query to a set
  // does not decrease B (utility gain offsets influence loss here because
  // utilities are nonnegative and feature-zeroing only moves influence
  // into utility-covered mass).
  workload::GeneratedWorkload env = MakeSmall(GetParam() ^ 0x5EED);
  const workload::Workload& w = *env.workload;
  Rng rng(GetParam());
  int violations = 0, checks = 0;
  for (int trial = 0; trial < 12; ++trial) {
    auto x = rng.SampleWithoutReplacement(w.size(), 2);
    size_t z = 0;
    do {
      z = rng.NextUint64(w.size());
    } while (z == x[0] || z == x[1]);
    const double bx = SetBenefit(w, {x[0], x[1]});
    const double bxz = SetBenefit(w, {x[0], x[1], z});
    ++checks;
    if (bxz < bx - 1e-9) ++violations;
  }
  // Theorem 1 is conditional; allow rare violations but expect the trend.
  EXPECT_LE(violations * 5, checks) << violations << "/" << checks;
}

TEST_P(TheoryTest, MarginalGainsDiminishOnAverage) {
  // Theorem 2 (submodularity) empirically: the greedy's conditional
  // benefits trend downward across rounds.
  workload::GeneratedWorkload env = MakeSmall(GetParam() ^ 0x7777);
  const workload::Workload& w = *env.workload;
  CompressionState state(w, {}, UtilityMode::kCostOnly);
  const SelectionResult greedy =
      GreedySelect(state, 6, SelectionAlgorithm::kAllPairs, kStrategy);
  ASSERT_GE(greedy.selection_benefits.size(), 4u);
  const auto& b = greedy.selection_benefits;
  const double early = b[0] + b[1];
  const double late = b[b.size() - 2] + b[b.size() - 1];
  EXPECT_GE(early, late * 0.99);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoryTest, ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace isum::core
