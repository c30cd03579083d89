// Unit tests for the ISUM core: featurization/weighting, utility, benefit,
// update strategies, the two greedy algorithms, summary features (incl. the
// Theorem 3 bound), weighing, and the Isum facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "core/benefit.h"
#include "core/isum.h"
#include "core/similarity.h"
#include "workload/workload_factory.h"

namespace isum::core {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  CoreTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 2;
    env_ = workload::MakeTpch(gen);
  }

  const workload::Workload& W() { return *env_->workload; }

  std::optional<workload::GeneratedWorkload> env_;
};

// --- Featurization (§4.2). ---

TEST_F(CoreTest, FeaturesCoverIndexableColumnsOnly) {
  FeatureSpace space;
  Featurizer featurizer(env_->catalog.get(), env_->stats.get(), &space);
  for (size_t i = 0; i < W().size(); ++i) {
    const SparseVector v = featurizer.Featurize(W().query(i).bound);
    EXPECT_GT(v.nnz(), 0u) << W().query(i).sql;
    for (const auto& e : v.entries()) {
      EXPECT_GT(e.weight, 0.0);
      // Every feature's column belongs to a table the query references.
      EXPECT_TRUE(W().query(i).bound.ReferencesTable(space.column(e.feature).table));
    }
  }
}

TEST_F(CoreTest, RuleAndStatsWeightingDiffer) {
  FeatureSpace space;
  Featurizer featurizer(env_->catalog.get(), env_->stats.get(), &space);
  FeaturizationOptions rule;
  FeaturizationOptions stats;
  stats.scheme = WeightingScheme::kStatsBased;
  int differing = 0;
  for (size_t i = 0; i < 22; ++i) {
    const SparseVector a = featurizer.Featurize(W().query(i).bound, rule);
    const SparseVector b = featurizer.Featurize(W().query(i).bound, stats);
    EXPECT_EQ(a.nnz(), b.nnz());  // same support, different weights
    if (WeightedJaccard(a, b) < 0.999) ++differing;
  }
  EXPECT_GT(differing, 5);
}

TEST_F(CoreTest, TableWeightChangesFeatures) {
  FeatureSpace space;
  Featurizer featurizer(env_->catalog.get(), env_->stats.get(), &space);
  FeaturizationOptions with;
  FeaturizationOptions without;
  without.use_table_weight = false;
  int differing = 0;
  for (size_t i = 0; i < 22; ++i) {
    const sql::BoundQuery& q = W().query(i).bound;
    if (q.tables.size() < 2) continue;  // single-table: weight is uniform
    if (WeightedJaccard(featurizer.Featurize(q, with),
                        featurizer.Featurize(q, without)) < 0.999) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 3);
}

// --- Utility (Definition 2). ---

TEST_F(CoreTest, UtilitiesSumToOne) {
  for (UtilityMode mode :
       {UtilityMode::kCostOnly, UtilityMode::kCostTimesSelectivity}) {
    const std::vector<double> u = ComputeUtilities(W(), mode);
    double total = 0.0;
    for (double v : u) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(CoreTest, CostOnlyUtilityOrdersByCost) {
  const std::vector<double> u = ComputeUtilities(W(), UtilityMode::kCostOnly);
  for (size_t i = 1; i < W().size(); ++i) {
    if (W().query(i).base_cost > W().query(0).base_cost) {
      EXPECT_GT(u[i], u[0] - 1e-15);
    }
  }
}

TEST_F(CoreTest, AverageSelectivityInUnitInterval) {
  for (size_t i = 0; i < W().size(); ++i) {
    const double s = AverageSelectivity(W().query(i).bound);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

// --- Influence and benefit (Definitions 3–4). ---

TEST_F(CoreTest, InfluenceIsSimilarityTimesUtility) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      const double f = Influence(state, i, j);
      if (i == j) {
        EXPECT_EQ(f, 0.0);
      } else {
        EXPECT_NEAR(f, state.Similarity(i, j) * state.utility(j), 1e-12);
      }
    }
  }
}

TEST_F(CoreTest, BenefitAtLeastUtility) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  for (size_t i = 0; i < W().size(); ++i) {
    EXPECT_GE(ConditionalBenefit(state, i), state.utility(i) - 1e-15);
  }
}

// --- Update strategies (§4.3, Figure 13). ---

TEST_F(CoreTest, UtilityUpdateDiscountsSimilarQueries) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  // Query 0 and its same-template sibling (index 1) are highly similar.
  const double sim = state.Similarity(0, 1);
  ASSERT_GT(sim, 0.9);
  const double before = state.utility(1);
  state.SelectAndUpdate(0, UpdateStrategy::kUtilityOnly);
  EXPECT_NEAR(state.utility(1), before * (1.0 - sim), 1e-12);
}

TEST_F(CoreTest, FeatureZeroCoversSelectedColumns) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  state.SelectAndUpdate(0, UpdateStrategy::kUtilityAndFeatureZero);
  // The same-template sibling shares all features: they must all be zeroed.
  EXPECT_TRUE(state.features(1).AllZero());
  // The selected query keeps its own features.
  EXPECT_FALSE(state.features(0).AllZero());
}

TEST_F(CoreTest, NoUpdateLeavesEverythingIntact) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  const double u1 = state.utility(1);
  state.SelectAndUpdate(0, UpdateStrategy::kNone);
  EXPECT_EQ(state.utility(1), u1);
  EXPECT_FALSE(state.features(1).AllZero());
}

TEST_F(CoreTest, WeightSubtractReducesButMayNotZero) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  const double sum_before = state.features(1).Sum();
  state.SelectAndUpdate(0, UpdateStrategy::kUtilityAndWeightSubtract);
  EXPECT_LT(state.features(1).Sum(), sum_before);
}

TEST_F(CoreTest, ResetRestoresOriginalFeatures) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  state.SelectAndUpdate(0, UpdateStrategy::kUtilityAndFeatureZero);
  ASSERT_TRUE(state.features(1).AllZero());
  state.ResetUnselectedFeatures();
  EXPECT_FALSE(state.features(1).AllZero());
  // Selected queries are not reset targets (they're out of the pool).
  EXPECT_TRUE(state.selected(0));
}

// --- Greedy algorithms (Algorithms 1–3). ---

TEST_F(CoreTest, AllPairsSelectsKDistinct) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  SelectionResult result =
      GreedySelect(state, 10, SelectionAlgorithm::kAllPairs,
                   UpdateStrategy::kUtilityAndFeatureZero);
  EXPECT_EQ(result.selected.size(), 10u);
  std::set<size_t> uniq(result.selected.begin(), result.selected.end());
  EXPECT_EQ(uniq.size(), 10u);
  EXPECT_EQ(result.selection_benefits.size(), 10u);
}

TEST_F(CoreTest, SummarySelectsKDistinct) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  SelectionResult result =
      GreedySelect(state, 10, SelectionAlgorithm::kSummaryFeatures,
                   UpdateStrategy::kUtilityAndFeatureZero);
  EXPECT_EQ(result.selected.size(), 10u);
  std::set<size_t> uniq(result.selected.begin(), result.selected.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST_F(CoreTest, SelectionCappedAtWorkloadSize) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  SelectionResult result =
      GreedySelect(state, W().size() + 50, SelectionAlgorithm::kAllPairs,
                   UpdateStrategy::kUtilityAndFeatureZero);
  EXPECT_EQ(result.selected.size(), W().size());
}

TEST_F(CoreTest, FirstPickMaximizesBenefit) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  std::vector<double> benefits;
  for (size_t i = 0; i < W().size(); ++i) {
    benefits.push_back(ConditionalBenefit(state, i));
  }
  CompressionState state2(W(), {}, UtilityMode::kCostOnly);
  SelectionResult result =
      GreedySelect(state2, 1, SelectionAlgorithm::kAllPairs,
                   UpdateStrategy::kUtilityAndFeatureZero);
  const size_t argmax = static_cast<size_t>(
      std::max_element(benefits.begin(), benefits.end()) - benefits.begin());
  EXPECT_EQ(result.selected[0], argmax);
}

TEST_F(CoreTest, SummaryAgreesWithAllPairsOnEarlyPicks) {
  // The linear-time algorithm approximates all-pairs: their early
  // selections should overlap substantially (the paper's Fig 11 "close").
  CompressionState s1(W(), {}, UtilityMode::kCostOnly);
  CompressionState s2(W(), {}, UtilityMode::kCostOnly);
  const auto a =
      GreedySelect(s1, 8, SelectionAlgorithm::kAllPairs,
                   UpdateStrategy::kUtilityAndFeatureZero);
  const auto b =
      GreedySelect(s2, 8, SelectionAlgorithm::kSummaryFeatures,
                   UpdateStrategy::kUtilityAndFeatureZero);
  std::set<size_t> sa(a.selected.begin(), a.selected.end());
  int overlap = 0;
  for (size_t i : b.selected) overlap += sa.contains(i);
  EXPECT_GE(overlap, 4);
}

// --- Summary features (§6.1, Definition 11, Theorem 3). ---

TEST_F(CoreTest, SummaryIsUtilityWeightedSum) {
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  const SparseVector summary = ComputeSummaryFeatures(state);
  // Spot-check one feature of query 0.
  const auto& entries = state.features(0).entries();
  ASSERT_FALSE(entries.empty());
  const int f = entries[0].feature;
  double expected = 0.0;
  for (size_t i = 0; i < state.size(); ++i) {
    expected += state.features(i).Get(f) * state.utility(i);
  }
  EXPECT_NEAR(summary.Get(f), expected, 1e-9);
}

TEST_F(CoreTest, SummaryInfluenceWithinTheorem3Bounds) {
  // Theorem 3: R/(n·U_L) <= F(V)/F(W) <= 1/(n·R·U_S) where R is the minimum
  // cross-query ratio of shared column weights, U_S/U_L min/max utilities.
  CompressionState state(W(), {}, UtilityMode::kCostOnly);
  const SparseVector summary = ComputeSummaryFeatures(state);
  const double n = static_cast<double>(state.size());

  double u_min = 1.0, u_max = 0.0, total_u = 0.0;
  for (size_t i = 0; i < state.size(); ++i) {
    u_min = std::min(u_min, state.utility(i));
    u_max = std::max(u_max, state.utility(i));
    total_u += state.utility(i);
  }
  // R over all features present in >1 query.
  double r = 1.0;
  for (size_t f = 0; f < state.feature_space().size(); ++f) {
    double w_min = 1e300, w_max = 0.0;
    int present = 0;
    for (size_t i = 0; i < state.size(); ++i) {
      const double w = state.features(i).Get(static_cast<int>(f));
      if (w > 0.0) {
        ++present;
        w_min = std::min(w_min, w);
        w_max = std::max(w_max, w);
      }
    }
    if (present > 1 && w_max > 0.0) r = std::min(r, w_min / w_max);
  }
  ASSERT_GT(r, 0.0);
  const double lower = r / (n * u_max);
  const double upper = 1.0 / (n * r * std::max(u_min, 1e-12));

  int checked = 0;
  for (size_t s = 0; s < state.size() && checked < 10; ++s) {
    const double fw = InfluenceOnWorkload(state, s);
    if (fw <= 1e-12) continue;
    const double fv = SummaryInfluence(state.features(s), state.utility(s),
                                       total_u, summary);
    const double ratio = fv / fw;
    EXPECT_GE(ratio, lower * 0.999);
    EXPECT_LE(ratio, upper * 1.001);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// --- Weighing (§7, Algorithms 4–5, Figure 14). ---

TEST_F(CoreTest, WeightsNormalizedAcrossStrategies) {
  Isum isum(&W());
  CompressionState state = isum.MakeState();
  const SelectionResult selection =
      GreedySelect(state, 6, SelectionAlgorithm::kSummaryFeatures,
                   isum.options().update);
  for (WeighingStrategy strategy :
       {WeighingStrategy::kNone, WeighingStrategy::kSelectionBenefit,
        WeighingStrategy::kRecalibrated,
        WeighingStrategy::kRecalibratedWithTemplates}) {
    const std::vector<double> weights =
        WeighSelectedQueries(W(), state, selection, strategy);
    ASSERT_EQ(weights.size(), selection.selected.size());
    double total = 0.0;
    for (double w : weights) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(CoreTest, NoneWeighingIsUniform) {
  Isum isum(&W());
  CompressionState state = isum.MakeState();
  const SelectionResult selection =
      GreedySelect(state, 4, SelectionAlgorithm::kSummaryFeatures,
                   isum.options().update);
  const std::vector<double> weights =
      WeighSelectedQueries(W(), state, selection, WeighingStrategy::kNone);
  for (double w : weights) EXPECT_DOUBLE_EQ(w, 0.25);
}

TEST_F(CoreTest, TemplateWeighingBoostsRepresentativeInstances) {
  // With 2 instances per template, a selected instance inherits utility from
  // its sibling; weights differ from plain recalibration for some query.
  Isum isum(&W());
  CompressionState state = isum.MakeState();
  const SelectionResult selection =
      GreedySelect(state, 6, SelectionAlgorithm::kSummaryFeatures,
                   isum.options().update);
  const auto recal = WeighSelectedQueries(W(), state, selection,
                                          WeighingStrategy::kRecalibrated);
  const auto tmpl = WeighSelectedQueries(
      W(), state, selection, WeighingStrategy::kRecalibratedWithTemplates);
  bool any_diff = false;
  for (size_t i = 0; i < recal.size(); ++i) {
    if (std::abs(recal[i] - tmpl[i]) > 1e-6) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// --- Facade. ---

TEST_F(CoreTest, CompressReturnsWeightedQueries) {
  Isum isum(&W());
  workload::CompressedWorkload compressed = isum.Compress(5);
  ASSERT_EQ(compressed.size(), 5u);
  double total = 0.0;
  for (const auto& e : compressed.entries) {
    EXPECT_LT(e.query_index, W().size());
    total += e.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(CoreTest, VariantsProduceValidCompressions) {
  for (const IsumOptions& options :
       {IsumOptions{}, IsumOptions::StatsVariant(), IsumOptions::NoTableVariant()}) {
    Isum isum(&W(), options);
    EXPECT_EQ(isum.Compress(4).size(), 4u);
  }
}

TEST_F(CoreTest, CompressionIsDeterministic) {
  Isum a(&W());
  Isum b(&W());
  const auto ca = a.Compress(6);
  const auto cb = b.Compress(6);
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.entries.size(); ++i) {
    EXPECT_EQ(ca.entries[i].query_index, cb.entries[i].query_index);
    EXPECT_DOUBLE_EQ(ca.entries[i].weight, cb.entries[i].weight);
  }
}

TEST_F(CoreTest, AllPairsAlgorithmSelectableViaOptions) {
  IsumOptions options;
  options.algorithm = SelectionAlgorithm::kAllPairs;
  Isum isum(&W(), options);
  EXPECT_EQ(isum.Compress(5).size(), 5u);
}

// --- Ablation similarity measures (Figure 7). ---

TEST_F(CoreTest, SimilarityMeasuresBoundedAndSymmetric) {
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      const double ci = CandidateIndexJaccard(W().query(i).bound,
                                              W().query(j).bound, *env_->stats);
      const double cols =
          IndexableColumnJaccard(W().query(i).bound, W().query(j).bound);
      EXPECT_GE(ci, 0.0);
      EXPECT_LE(ci, 1.0);
      EXPECT_GE(cols, 0.0);
      EXPECT_LE(cols, 1.0);
      if (i == j) {
        EXPECT_DOUBLE_EQ(ci, 1.0);
        EXPECT_DOUBLE_EQ(cols, 1.0);
      }
    }
  }
}

}  // namespace
}  // namespace isum::core
