// Differential oracle for feature classes (core/weighting.h,
// core/compression_state.h): CompressionState keeps one feature row per
// class of queries with equal featurization inputs, and the weighing step
// copies and updates those rows per class. The per-query state and weighing
// loop they replace are kept below, copied verbatim, as the reference, with
// the greedy selection loops reduced to their serial argmax. Compared bit for
// bit after every SelectAndUpdate and every reset: each query's current and
// original features (ids and weight bits), utilities and EligibleQueries,
// under all four update strategies; summary and all-pairs selections by
// order and benefit bits; the weights of all four weighing strategies; a
// replayed selection against the live run; and FeaturizeWorkload against
// per-query Featurize for both weighting schemes with the table weight on
// and off. Inputs: seeded TPC-H, TPC-DS, DSB and Real-M workloads with
// several instances per template, and hand-built shapes (a self-join,
// non-sargable and complex predicates, selectivity ties, the same columns in
// another filter order).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/schema_builder.h"
#include "common/rng.h"
#include "core/compression_state.h"
#include "core/greedy.h"
#include "core/isum.h"
#include "core/weighing.h"
#include "core/weighting.h"
#include "obs/metrics.h"
#include "stats/data_generator.h"
#include "workload/workload_factory.h"

namespace isum::core {
namespace {

// ---- Reference: the per-query CompressionState, verbatim ----

class RefState {
 public:
  RefState(const workload::Workload& workload,
           const FeaturizationOptions& feat_options,
           UtilityMode utility_mode) {
    Featurizer featurizer(workload.env().catalog, workload.env().stats,
                          &space_);
    features_.reserve(workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      features_.push_back(
          featurizer.Featurize(workload.query(i).bound, feat_options));
    }
    original_features_ = features_;
    utilities_ = ComputeUtilities(workload, utility_mode);
    original_utilities_ = utilities_;
    selected_.assign(workload.size(), false);
  }

  size_t size() const { return features_.size(); }
  const SparseVector& features(size_t i) const { return features_[i]; }
  const SparseVector& original_features(size_t i) const {
    return original_features_[i];
  }
  double utility(size_t i) const { return utilities_[i]; }
  double original_utility(size_t i) const { return original_utilities_[i]; }
  bool selected(size_t i) const { return selected_[i]; }
  const FeatureSpace& feature_space() const { return space_; }

  void SelectAndUpdate(size_t s, UpdateStrategy strategy) {
    selected_[s] = true;
    if (strategy == UpdateStrategy::kNone) return;
    const SparseVector qs = features_[s];
    update_scratch_.Reserve(space_.size());
    update_scratch_.Scatter(qs);
    for (size_t j = 0; j < features_.size(); ++j) {
      if (selected_[j]) continue;
      const double sim = WeightedJaccardVsDense(update_scratch_, features_[j]);
      utilities_[j] -= utilities_[j] * sim;
      switch (strategy) {
        case UpdateStrategy::kUtilityOnly:
          break;
        case UpdateStrategy::kUtilityAndWeightSubtract:
          features_[j].SubtractFromAllClamped(sim);
          break;
        case UpdateStrategy::kUtilityAndFeatureZero:
          features_[j].ZeroWhere(qs);
          break;
        case UpdateStrategy::kNone:
          break;
      }
    }
  }

  void ResetUnselectedFeatures() {
    for (size_t i = 0; i < features_.size(); ++i) {
      if (!selected_[i]) features_[i] = original_features_[i];
    }
  }

  std::vector<size_t> EligibleQueries() const {
    std::vector<size_t> out;
    for (size_t i = 0; i < features_.size(); ++i) {
      if (!selected_[i] && !features_[i].AllZero()) out.push_back(i);
    }
    return out;
  }

 private:
  FeatureSpace space_;
  std::vector<SparseVector> features_;
  std::vector<SparseVector> original_features_;
  std::vector<double> utilities_;
  std::vector<double> original_utilities_;
  std::vector<bool> selected_;
  DenseScratch update_scratch_;
};

// ---- Reference: the per-query weighing loop, verbatim ----

std::vector<double> RefUniformWeights(size_t k) {
  return std::vector<double>(k, k > 0 ? 1.0 / static_cast<double>(k) : 0.0);
}

std::vector<double> RefNormalized(std::vector<double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return RefUniformWeights(weights.size());
  for (double& w : weights) w /= total;
  return weights;
}

std::vector<double> RefWeighWithSignals(const workload::Workload& workload,
                                        const SelectionResult& selection,
                                        std::vector<SparseVector> features,
                                        std::vector<double> utilities,
                                        size_t num_features,
                                        WeighingStrategy strategy) {
  const size_t k = selection.selected.size();
  std::vector<bool> in_wu(workload.size(), true);
  for (size_t s : selection.selected) in_wu[s] = false;

  if (strategy == WeighingStrategy::kRecalibratedWithTemplates) {
    struct TemplateAgg {
      double freq_in_wk = 0.0;
      double total_utility = 0.0;
    };
    std::unordered_map<uint64_t, TemplateAgg> agg;
    for (size_t s : selection.selected) {
      agg[workload.query(s).template_hash].freq_in_wk += 1.0;
    }
    for (size_t i = 0; i < workload.size(); ++i) {
      auto it = agg.find(workload.query(i).template_hash);
      if (it == agg.end()) continue;
      it->second.total_utility += utilities[i];
      in_wu[i] = false;
    }
    for (size_t s : selection.selected) {
      const TemplateAgg& a = agg[workload.query(s).template_hash];
      utilities[s] = a.total_utility / std::max(1.0, a.freq_in_wk);
    }
  }

  std::vector<size_t> remaining = selection.selected;
  std::unordered_map<size_t, double> raw_weight;
  std::vector<double> summary(num_features, 0.0);
  DenseScratch chosen_scratch;
  chosen_scratch.Reserve(num_features);
  while (!remaining.empty()) {
    std::fill(summary.begin(), summary.end(), 0.0);
    for (size_t i = 0; i < workload.size(); ++i) {
      if (!in_wu[i]) continue;
      const double u = utilities[i];
      for (const SparseVector::Entry& e : features[i].entries()) {
        summary[e.feature] += e.weight * u;
      }
    }
    double summary_total = 0.0;
    for (double v : summary) summary_total += v;

    double max_benefit = -1.0;
    size_t arg = 0;
    for (size_t r = 0; r < remaining.size(); ++r) {
      const size_t qi = remaining[r];
      double min_sum = 0.0, query_sum = 0.0;
      for (const SparseVector::Entry& e : features[qi].entries()) {
        query_sum += e.weight;
        min_sum += std::min(e.weight, summary[e.feature]);
      }
      const double max_sum = query_sum + summary_total - min_sum;
      const double benefit =
          utilities[qi] + (max_sum > 0.0 ? min_sum / max_sum : 0.0);
      if (benefit > max_benefit) {
        max_benefit = benefit;
        arg = r;
      }
    }
    const size_t chosen = remaining[arg];
    raw_weight[chosen] = std::max(0.0, max_benefit);
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(arg));

    chosen_scratch.Scatter(features[chosen]);
    for (size_t i = 0; i < workload.size(); ++i) {
      if (!in_wu[i]) continue;
      const double sim = WeightedJaccardVsDense(chosen_scratch, features[i]);
      utilities[i] -= utilities[i] * sim;
      features[i].ZeroWhere(features[chosen]);
    }
  }

  std::vector<double> weights(k, 0.0);
  for (size_t r = 0; r < k; ++r) {
    weights[r] = raw_weight[selection.selected[r]];
  }
  return RefNormalized(std::move(weights));
}

std::vector<double> RefWeighSelectedQueries(const workload::Workload& workload,
                                            const RefState& state,
                                            const SelectionResult& selection,
                                            WeighingStrategy strategy) {
  const size_t k = selection.selected.size();
  if (k == 0) return {};
  if (strategy == WeighingStrategy::kNone) return RefUniformWeights(k);
  if (strategy == WeighingStrategy::kSelectionBenefit) {
    return RefNormalized(selection.selection_benefits);
  }
  std::vector<SparseVector> features(workload.size());
  std::vector<double> utilities(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    features[i] = state.original_features(i);
    utilities[i] = state.original_utility(i);
  }
  return RefWeighWithSignals(workload, selection, std::move(features),
                             std::move(utilities),
                             state.feature_space().size(), strategy);
}

// ---- Reference: the greedy selections' serial argmax ----

/// Summary-features GreedySelect without budget, faults, decision events
/// or checkpoints.
SelectionResult RefSummarySelect(RefState& state, size_t k,
                                 UpdateStrategy strategy) {
  SelectionResult result;
  std::vector<double> summary(state.feature_space().size(), 0.0);
  while (result.selected.size() < k) {
    std::vector<size_t> eligible = state.EligibleQueries();
    if (eligible.empty()) {
      state.ResetUnselectedFeatures();
      eligible = state.EligibleQueries();
      if (eligible.empty()) break;
    }
    std::fill(summary.begin(), summary.end(), 0.0);
    double total_utility = 0.0;
    for (size_t i = 0; i < state.size(); ++i) {
      if (state.selected(i)) continue;
      total_utility += state.utility(i);
      const double u = state.utility(i);
      for (const SparseVector::Entry& e : state.features(i).entries()) {
        summary[e.feature] += e.weight * u;
      }
    }
    double summary_total = 0.0;
    for (double v : summary) summary_total += v;

    double max_benefit = -1.0;
    size_t best = eligible.front();
    for (size_t i : eligible) {
      // DenseSummaryInfluence, inlined.
      const double query_utility = state.utility(i);
      const double remaining = total_utility - query_utility;
      const double scale = remaining > 1e-15 ? total_utility / remaining : 1.0;
      double min_sum = 0.0, query_sum = 0.0, covered = 0.0, covered_v = 0.0;
      for (const SparseVector::Entry& e : state.features(i).entries()) {
        const double v = summary[e.feature];
        const double v_prime =
            std::max(0.0, v + e.weight * (-query_utility)) * scale;
        min_sum += std::min(e.weight, v_prime);
        query_sum += e.weight;
        covered += v;
        covered_v += v_prime;
      }
      const double v_prime_sum = (summary_total - covered) * scale + covered_v;
      const double max_sum = query_sum + v_prime_sum - min_sum;
      const double benefit =
          query_utility + (max_sum > 0.0 ? min_sum / max_sum : 0.0);
      if (benefit > max_benefit) {
        max_benefit = benefit;
        best = i;
      }
    }
    result.selected.push_back(best);
    result.selection_benefits.push_back(max_benefit);
    state.SelectAndUpdate(best, strategy);
  }
  return result;
}

/// All-pairs GreedySelect as one serial first-occurrence argmax.
SelectionResult RefAllPairsSelect(RefState& state, size_t k,
                                  UpdateStrategy strategy) {
  SelectionResult result;
  DenseScratch scratch;
  while (result.selected.size() < k) {
    std::vector<size_t> eligible = state.EligibleQueries();
    if (eligible.empty()) {
      state.ResetUnselectedFeatures();
      eligible = state.EligibleQueries();
      if (eligible.empty()) break;
    }
    scratch.Reserve(state.feature_space().size());
    double max_benefit = -1.0;
    size_t best = eligible.front();
    for (size_t i : eligible) {
      scratch.Scatter(state.features(i));
      double influence = 0.0;
      for (size_t j = 0; j < state.size(); ++j) {
        if (j == i || state.selected(j)) continue;
        influence +=
            WeightedJaccardVsDense(scratch, state.features(j)) *
            state.utility(j);
      }
      const double benefit = state.utility(i) + influence;
      if (benefit > max_benefit) {
        max_benefit = benefit;
        best = i;
      }
    }
    result.selected.push_back(best);
    result.selection_benefits.push_back(max_benefit);
    state.SelectAndUpdate(best, strategy);
  }
  return result;
}

// ---- Comparisons ----

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Same feature ids and bit-identical weights, entry by entry.
::testing::AssertionResult SameVector(const SparseVector& got,
                                      const SparseVector& want) {
  if (got.nnz() != want.nnz()) {
    return ::testing::AssertionFailure()
           << "nnz " << got.nnz() << " vs " << want.nnz();
  }
  for (size_t e = 0; e < got.nnz(); ++e) {
    const SparseVector::Entry& a = got.entries()[e];
    const SparseVector::Entry& b = want.entries()[e];
    if (a.feature != b.feature || Bits(a.weight) != Bits(b.weight)) {
      return ::testing::AssertionFailure()
             << "entry " << e << ": (" << a.feature << ", " << a.weight
             << ") vs (" << b.feature << ", " << b.weight << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every per-query signal of the class-shared state matches the reference.
template <typename State>
void ExpectSameState(const CompressionState& got, const State& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameVector(got.features(i), want.features(i)))
        << label << ": features of query " << i;
    ASSERT_TRUE(SameVector(got.original_features(i), want.original_features(i)))
        << label << ": original features of query " << i;
    ASSERT_EQ(Bits(got.utility(i)), Bits(want.utility(i)))
        << label << ": utility of query " << i;
    ASSERT_EQ(Bits(got.original_utility(i)), Bits(want.original_utility(i)))
        << label << ": original utility of query " << i;
    ASSERT_EQ(got.selected(i), want.selected(i)) << label << ": query " << i;
  }
  ASSERT_EQ(got.EligibleQueries(), want.EligibleQueries()) << label;
}

void ExpectSameSelection(const SelectionResult& got,
                         const SelectionResult& want,
                         const std::string& label) {
  ASSERT_EQ(got.selected, want.selected) << label;
  ASSERT_EQ(got.selection_benefits.size(), want.selection_benefits.size())
      << label;
  for (size_t r = 0; r < got.selection_benefits.size(); ++r) {
    EXPECT_EQ(Bits(got.selection_benefits[r]),
              Bits(want.selection_benefits[r]))
        << label << ": benefit of round " << r;
  }
}

constexpr UpdateStrategy kStrategies[] = {
    UpdateStrategy::kNone, UpdateStrategy::kUtilityOnly,
    UpdateStrategy::kUtilityAndWeightSubtract,
    UpdateStrategy::kUtilityAndFeatureZero};

constexpr WeighingStrategy kWeighings[] = {
    WeighingStrategy::kNone, WeighingStrategy::kSelectionBenefit,
    WeighingStrategy::kRecalibrated,
    WeighingStrategy::kRecalibratedWithTemplates};

/// The featurization settings swept: both schemes, table weight on and off.
std::vector<FeaturizationOptions> AllFeaturizations() {
  std::vector<FeaturizationOptions> out;
  for (const WeightingScheme scheme :
       {WeightingScheme::kRuleBased, WeightingScheme::kStatsBased}) {
    for (const bool table_weight : {true, false}) {
      FeaturizationOptions o;
      o.scheme = scheme;
      o.use_table_weight = table_weight;
      out.push_back(o);
    }
  }
  return out;
}

std::string Label(const FeaturizationOptions& o) {
  return std::string(o.scheme == WeightingScheme::kRuleBased ? "rule"
                                                             : "stats") +
         (o.use_table_weight ? "+table" : "");
}

/// FeaturizeWorkload's row for every query equals a direct Featurize of that
/// query, and the shared space assigns every id to the same column. Returns
/// the number of classes.
size_t ExpectFeaturizeWorkloadMatches(const workload::Workload& w,
                                      const FeaturizationOptions& options) {
  FeatureSpace shared_space;
  const WorkloadFeatures features =
      FeaturizeWorkload(w, options, &shared_space);
  FeatureSpace direct_space;
  const Featurizer featurizer(w.env().catalog, w.env().stats, &direct_space);
  EXPECT_EQ(features.class_of.size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    const SparseVector direct = featurizer.Featurize(w.query(i).bound, options);
    EXPECT_LT(features.class_of[i], features.rows.size());
    EXPECT_TRUE(SameVector(features.rows[features.class_of[i]], direct))
        << Label(options) << ": query " << i;
    // A class's row comes from its first query.
    EXPECT_LE(features.class_of[i], i);
  }
  EXPECT_EQ(shared_space.size(), direct_space.size()) << Label(options);
  for (size_t id = 0; id < std::min(shared_space.size(), direct_space.size());
       ++id) {
    EXPECT_EQ(shared_space.column(static_cast<int>(id)),
              direct_space.column(static_cast<int>(id)))
        << Label(options) << ": feature " << id;
  }
  return features.rows.size();
}

/// Drives both states through seeded random selections, comparing after
/// every SelectAndUpdate and every reset; returns the number of resets.
size_t ExpectSameUnderRandomSelections(const workload::Workload& w,
                                       const FeaturizationOptions& options,
                                       UtilityMode utility_mode,
                                       UpdateStrategy strategy, uint64_t seed,
                                       const std::string& label) {
  CompressionState got(w, options, utility_mode);
  RefState want(w, options, utility_mode);
  ExpectSameState(got, want, label + " initial");
  Rng rng(seed);
  size_t resets = 0;
  // A reference to a selected query's features must survive later
  // selections, which append rows.
  const SparseVector* held = nullptr;
  size_t held_query = 0;
  for (size_t round = 0; round < w.size(); ++round) {
    std::vector<size_t> eligible = want.EligibleQueries();
    if (eligible.empty()) {
      got.ResetUnselectedFeatures();
      want.ResetUnselectedFeatures();
      ++resets;
      ExpectSameState(got, want, label + " reset " + std::to_string(resets));
      eligible = want.EligibleQueries();
      if (eligible.empty()) break;
    }
    const size_t s = eligible[rng.NextUint64(eligible.size())];
    got.SelectAndUpdate(s, strategy);
    want.SelectAndUpdate(s, strategy);
    ExpectSameState(got, want, label + " round " + std::to_string(round));
    if (::testing::Test::HasFatalFailure()) return resets;
    if (held == nullptr) {
      held = &got.features(s);
      held_query = s;
    }
  }
  EXPECT_EQ(held, &got.features(held_query)) << label;
  EXPECT_TRUE(SameVector(*held, want.features(held_query))) << label;
  return resets;
}

/// Live summary and all-pairs runs against the reference, then weighing,
/// then a replay of the live selection.
void ExpectSameSelectionsAndWeights(const workload::Workload& w,
                                    const FeaturizationOptions& options,
                                    UtilityMode utility_mode,
                                    UpdateStrategy strategy, size_t k,
                                    const std::string& label) {
  // Summary selection.
  CompressionState got(w, options, utility_mode);
  RefState want(w, options, utility_mode);
  const SelectionResult live =
      GreedySelect(got, k, SelectionAlgorithm::kSummaryFeatures, strategy);
  const SelectionResult ref = RefSummarySelect(want, k, strategy);
  ExpectSameSelection(live, ref, label + " summary");
  ExpectSameState(got, want, label + " after summary");

  for (const WeighingStrategy weighing : kWeighings) {
    const std::vector<double> a = WeighSelectedQueries(w, got, live, weighing);
    const std::vector<double> b =
        RefWeighSelectedQueries(w, want, ref, weighing);
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t r = 0; r < a.size(); ++r) {
      EXPECT_EQ(Bits(a[r]), Bits(b[r]))
          << label << ": weighing " << static_cast<int>(weighing)
          << " weight " << r;
    }
  }

  // A fresh state replaying the live selection lands on the live state.
  CompressionState replayed(w, options, utility_mode);
  replayed.ReplaySelection(live.selected, strategy);
  ExpectSameState(replayed, want, label + " replayed");

  // All-pairs selection.
  RefState want_pairs(w, options, utility_mode);
  const SelectionResult ref_pairs = RefAllPairsSelect(want_pairs, k, strategy);
  CompressionState got_pairs(w, options, utility_mode);
  const SelectionResult pairs =
      GreedySelect(got_pairs, k, SelectionAlgorithm::kAllPairs, strategy);
  ExpectSameSelection(pairs, ref_pairs, label + " all-pairs");
  ExpectSameState(got_pairs, want_pairs, label + " all-pairs");
}

std::string StrategyName(UpdateStrategy s) {
  switch (s) {
    case UpdateStrategy::kNone:
      return "none";
    case UpdateStrategy::kUtilityOnly:
      return "utility";
    case UpdateStrategy::kUtilityAndWeightSubtract:
      return "subtract";
    case UpdateStrategy::kUtilityAndFeatureZero:
      return "zero";
  }
  return "?";
}

// ---- Seeded generated workloads ----

struct Case {
  const char* workload;
  uint64_t seed;
  int instances_per_template;
  int max_templates;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << "/" << c.seed;
}

class CompressionStateDifferentialTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    workload::GeneratorOptions gen;
    gen.seed = GetParam().seed;
    gen.instances_per_template = GetParam().instances_per_template;
    gen.max_templates = GetParam().max_templates;
    env_ = workload::MakeWorkloadByName(GetParam().workload, gen);
    ASSERT_GT(W().size(), 0u);
  }

  const workload::Workload& W() const { return *env_->workload; }

  std::optional<workload::GeneratedWorkload> env_;
};

TEST_P(CompressionStateDifferentialTest, FeaturizeWorkloadMatchesFeaturize) {
  for (const FeaturizationOptions& options : AllFeaturizations()) {
    const size_t classes = ExpectFeaturizeWorkloadMatches(W(), options);
    // Several instances per template: the sweep must actually share rows.
    // (Stats-based keys read selectivities, which vary with the constants.)
    if (options.scheme == WeightingScheme::kRuleBased) {
      EXPECT_LT(classes, W().size()) << Label(options);
    }
  }
}

TEST_P(CompressionStateDifferentialTest, UpdatesMatchPerQueryState) {
  FeaturizationOptions stats_options;
  stats_options.scheme = WeightingScheme::kStatsBased;
  stats_options.use_table_weight = false;
  for (const UpdateStrategy strategy : kStrategies) {
    const size_t resets = ExpectSameUnderRandomSelections(
        W(), {}, UtilityMode::kCostOnly, strategy, GetParam().seed * 31 + 7,
        "rule " + StrategyName(strategy));
    if (HasFatalFailure()) return;
    if (strategy == UpdateStrategy::kUtilityAndFeatureZero) {
      EXPECT_GT(resets, 0u);
    }
    ExpectSameUnderRandomSelections(
        W(), stats_options, UtilityMode::kCostTimesSelectivity, strategy,
        GetParam().seed * 37 + 3, "stats " + StrategyName(strategy));
    if (HasFatalFailure()) return;
  }
}

TEST_P(CompressionStateDifferentialTest, SelectionsAndWeightsMatch) {
  FeaturizationOptions stats_options;
  stats_options.scheme = WeightingScheme::kStatsBased;
  const size_t k = std::min<size_t>(W().size() / 3, 24);
  for (const UpdateStrategy strategy : kStrategies) {
    ExpectSameSelectionsAndWeights(W(), {}, UtilityMode::kCostOnly, strategy,
                                   k, "rule " + StrategyName(strategy));
    if (HasFatalFailure()) return;
  }
  ExpectSameSelectionsAndWeights(
      W(), stats_options, UtilityMode::kCostTimesSelectivity,
      UpdateStrategy::kUtilityAndFeatureZero, k, "stats zero");
}

INSTANTIATE_TEST_SUITE_P(
    CompressionStateDifferential, CompressionStateDifferentialTest,
    ::testing::Values(Case{"tpch", 1, 4, 0}, Case{"tpch", 2, 3, 0},
                      Case{"tpcds", 1, 3, 30}, Case{"dsb", 1, 3, 30},
                      Case{"realm", 1, 3, 40}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.workload) + "_seed" +
             std::to_string(info.param.seed);
    });

// ---- Hand-built shapes ----

class CompressionStateDifferentialShapes : public ::testing::Test {
 protected:
  CompressionStateDifferentialShapes()
      : stats_(&cat_), cost_model_(&cat_, &stats_) {
    catalog::SchemaBuilder b(&cat_);
    b.Table("t1", 100'000)
        .Key("a", catalog::ColumnType::kInt)
        .Col("b", catalog::ColumnType::kInt)
        .Col("c", catalog::ColumnType::kInt)
        .Col("d", catalog::ColumnType::kInt);
    b.Table("t2", 30'000)
        .Key("x", catalog::ColumnType::kInt)
        .Col("y", catalog::ColumnType::kInt)
        .Col("z", catalog::ColumnType::kInt);
    b.Table("t3", 1'000)
        .Key("p", catalog::ColumnType::kInt)
        .Col("q", catalog::ColumnType::kInt);
    stats::DataGenerator dg;
    Rng rng(1);
    for (const char* t : {"t1", "t2", "t3"}) {
      const catalog::Table* table = cat_.FindTable(t);
      for (const catalog::Column& col : table->columns()) {
        stats::ColumnDataSpec spec;
        spec.distribution = col.is_key ? stats::Distribution::kKey
                                       : stats::Distribution::kUniform;
        spec.distinct = 100;
        spec.domain_min = 0;
        spec.domain_max = 100;
        stats_.SetStats(catalog::ColumnId{table->id(), col.ordinal},
                        dg.Generate(spec, table->row_count(), rng));
      }
    }
    workload_ = std::make_unique<workload::Workload>(
        workload::Workload::Environment{&cat_, &stats_, &cost_model_});
  }

  void Add(const std::string& sql) {
    const Status status = workload_->AddQuery(sql);
    ASSERT_TRUE(status.ok()) << sql << ": " << status.ToString();
  }

  /// Appends a copy of query `i` with its filter selectivities replaced.
  void AddWithSelectivities(size_t i,
                            const std::vector<double>& selectivities) {
    sql::BoundQuery q = workload_->query(i).bound;
    ASSERT_EQ(q.filters.size(), selectivities.size());
    for (size_t f = 0; f < selectivities.size(); ++f) {
      q.filters[f].selectivity = selectivities[f];
    }
    workload_->AddBoundQuery(std::move(q), workload_->query(i).sql, -1.0);
  }

  /// The full sweep over the hand-built workload.
  void ExpectAllMatch() {
    const workload::Workload& w = *workload_;
    for (const FeaturizationOptions& options : AllFeaturizations()) {
      ExpectFeaturizeWorkloadMatches(w, options);
      for (const UpdateStrategy strategy : kStrategies) {
        const std::string label = Label(options) + " " + StrategyName(strategy);
        ExpectSameUnderRandomSelections(w, options, UtilityMode::kCostOnly,
                                        strategy, 11, label);
        if (HasFatalFailure()) return;
        ExpectSameSelectionsAndWeights(w, options, UtilityMode::kCostOnly,
                                       strategy, w.size() / 2, label);
        if (HasFatalFailure()) return;
      }
    }
  }

  size_t Classes(const FeaturizationOptions& options) {
    FeatureSpace space;
    return FeaturizeWorkload(*workload_, options, &space).rows.size();
  }

  catalog::Catalog cat_;
  stats::StatsManager stats_;
  engine::CostModel cost_model_;
  std::unique_ptr<workload::Workload> workload_;
};

TEST_F(CompressionStateDifferentialShapes, RepeatedMixedShapes) {
  const std::vector<std::string> shapes = {
      // Self-join: t1 appears twice in the table weights.
      "SELECT a.b FROM t1 a, t1 b2, t2 WHERE a.b = t2.x AND b2.c = t2.y "
      "AND a.c = 5",
      "SELECT a.b FROM t1 a, t2 WHERE a.b = t2.x AND a.c = 5",
      // Equal predicates over other tables: only the table weights differ.
      "SELECT t1.a FROM t1, t2 WHERE t1.b = 5 AND t2.y = 3",
      "SELECT t1.a FROM t1, t2, t3 WHERE t1.b = 5 AND t2.y = 3",
      "SELECT t1.a FROM t1, t2, t1 x WHERE t1.b = 5 AND t2.y = 3",
      // Non-sargable filters and a complex predicate across tables.
      "SELECT t1.a FROM t1, t2 WHERE t1.b = t2.x AND t1.c <> 3 AND "
      "t1.d NOT IN (1, 2) AND (t1.c = 1 OR t2.y = 2)",
      "SELECT t1.a FROM t1 WHERE t1.b + t1.c > 5 AND t1.d BETWEEN 1 AND 9",
      // Equal but for the complex predicate's columns.
      "SELECT t1.a FROM t1, t2 WHERE t1.b = t2.x AND (t1.c = 1 OR t2.y = 2)",
      "SELECT t1.a FROM t1, t2 WHERE t1.b = t2.x AND (t1.d = 1 OR t2.z = 2)",
      // Group-by and order-by columns.
      "SELECT t2.y, COUNT(*) FROM t2, t3 WHERE t2.z = t3.p AND t3.q < 40 "
      "GROUP BY t2.y ORDER BY t2.y",
      "SELECT t3.q FROM t3 ORDER BY t3.q DESC",
  };
  // Interleaved repeats, with other constants where a constant appears.
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& sql : shapes) Add(sql);
    Add("SELECT t1.a FROM t1 WHERE t1.b = " + std::to_string(rep + 2) +
        " AND t1.c < " + std::to_string(10 * rep + 20));
  }
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_LT(Classes({}), workload_->size());
  ExpectAllMatch();
}

TEST_F(CompressionStateDifferentialShapes, FilterOrderAndSelectivityTies) {
  // The same columns in three filter orders.
  Add("SELECT t1.a FROM t1 WHERE t1.b = 5 AND t1.c = 7 AND t1.d = 9");
  Add("SELECT t1.a FROM t1 WHERE t1.c = 7 AND t1.b = 5 AND t1.d = 9");
  Add("SELECT t1.a FROM t1 WHERE t1.d = 9 AND t1.c = 7 AND t1.b = 5");
  ASSERT_FALSE(HasFatalFailure());
  // Query 0's filter list under other selectivities: the sargable order
  // flips (3), or only the values change (4, 5, 6, 8), with 6 and 8 all
  // ties; 7 is query 1 with the same ties.
  AddWithSelectivities(0, {0.3, 0.2, 0.1});
  AddWithSelectivities(0, {0.1, 0.2, 0.3});
  AddWithSelectivities(0, {0.05, 0.25, 0.5});
  AddWithSelectivities(0, {0.2, 0.2, 0.2});
  AddWithSelectivities(1, {0.2, 0.2, 0.2});
  AddWithSelectivities(0, {0.2, 0.2, 0.2});
  ASSERT_FALSE(HasFatalFailure());
  FeatureSpace space;
  const WorkloadFeatures rule = FeaturizeWorkload(*workload_, {}, &space);
  EXPECT_NE(rule.class_of[1], rule.class_of[0]);
  EXPECT_NE(rule.class_of[2], rule.class_of[0]);
  EXPECT_NE(rule.class_of[3], rule.class_of[4]);
  EXPECT_EQ(rule.class_of[5], rule.class_of[4]);
  EXPECT_EQ(rule.class_of[6], rule.class_of[4]);
  EXPECT_NE(rule.class_of[7], rule.class_of[6]);
  EXPECT_EQ(rule.class_of[8], rule.class_of[6]);
  // The stats-based scheme reads the selectivity values themselves.
  FeaturizationOptions stats_options;
  stats_options.scheme = WeightingScheme::kStatsBased;
  const WorkloadFeatures stats =
      FeaturizeWorkload(*workload_, stats_options, &space);
  EXPECT_NE(stats.class_of[5], stats.class_of[4]);
  EXPECT_NE(stats.class_of[6], stats.class_of[4]);
  EXPECT_EQ(stats.class_of[8], stats.class_of[6]);
  ExpectAllMatch();
}

TEST_F(CompressionStateDifferentialShapes, CompressCountsFeatureClasses) {
  for (int rep = 0; rep < 3; ++rep) {
    Add("SELECT t1.a FROM t1 WHERE t1.b = " + std::to_string(rep) +
        " AND t1.c < 50");
    Add("SELECT t2.y FROM t2, t3 WHERE t2.z = t3.p ORDER BY t2.y");
  }
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_EQ(Classes({}), 2u);
  obs::Counter* classes =
      obs::MetricsRegistry::Global().GetCounter("compress.feature_classes");
  const uint64_t before = classes->Value();
  Isum(workload_.get()).Compress(2);
  EXPECT_EQ(classes->Value() - before, 2u);
}

}  // namespace
}  // namespace isum::core
