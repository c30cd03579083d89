#ifndef ISUM_CORE_COMPRESSION_STATE_H_
#define ISUM_CORE_COMPRESSION_STATE_H_

#include <cstdint>
#include <vector>

#include "core/features.h"
#include "core/utility.h"
#include "core/weighting.h"
#include "workload/workload.h"

namespace isum::core {

/// Strategies for updating unselected queries after each greedy selection
/// (§4.3 and Figure 13 of the paper).
enum class UpdateStrategy {
  /// No update (benefit of a set ignores interactions) — worst in Fig 13.
  kNone,
  /// Discount utilities only: U(q_j | q_i) = U(q_j)(1 - S(q_i, q_j)).
  kUtilityOnly,
  /// Utility update + subtract S(q_i, q_j) from q_j's feature weights.
  kUtilityAndWeightSubtract,
  /// Utility update + zero the features q_i covers (the paper's default).
  kUtilityAndFeatureZero,
};

/// Mutable per-query signals shared by the all-pairs and summary-features
/// greedy algorithms: current and original features/utilities, selection
/// flags, and the update/reset machinery of Algorithm 2.
///
/// Features are stored once per feature class (FeaturizeWorkload). The
/// unselected members of a class start equal and receive identical updates,
/// so they share one current row and every per-class result is
/// bit-identical to the per-query one. A selected query's features freeze
/// at selection time, so SelectAndUpdate first gives it its own row.
class CompressionState {
 public:
  /// Featurizes every query in `workload` and computes utilities.
  CompressionState(const workload::Workload& workload,
                   const FeaturizationOptions& feat_options,
                   UtilityMode utility_mode);

  size_t size() const { return row_of_.size(); }
  /// Stays valid across SelectAndUpdate: detaching never reallocates.
  const SparseVector& features(size_t i) const { return rows_[row_of_[i]]; }
  const SparseVector& original_features(size_t i) const {
    return original_rows_[class_of_[i]];
  }
  /// Feature classes: queries with equal featurization inputs.
  size_t num_classes() const { return original_rows_.size(); }
  size_t feature_class(size_t i) const { return class_of_[i]; }
  const SparseVector& original_class_features(size_t c) const {
    return original_rows_[c];
  }
  double utility(size_t i) const { return utilities_[i]; }
  double original_utility(size_t i) const { return original_utilities_[i]; }
  bool selected(size_t i) const { return selected_[i]; }
  FeatureSpace& feature_space() { return space_; }
  const FeatureSpace& feature_space() const { return space_; }

  /// Similarity of two queries' *current* features.
  double Similarity(size_t i, size_t j) const {
    return WeightedJaccard(features(i), features(j));
  }

  /// Marks `s` selected and applies `strategy` to every unselected query,
  /// using s's features at selection time (Algorithm 2, lines 9–11).
  void SelectAndUpdate(size_t s, UpdateStrategy strategy);

  /// Resets unselected queries' features to their original weights
  /// (Algorithm 2, line 12). Utilities stay discounted.
  void ResetUnselectedFeatures();

  /// Checkpoint restore: re-applies a recorded selection prefix to a fresh
  /// state. Before each id it runs the greedy round's EligibleAfterReset,
  /// then applies `strategy` — so the replayed state is bit-identical to
  /// the state the recording run had after those rounds, at O(rounds·n)
  /// cost and without any argmax scan (core/checkpointing.h).
  void ReplaySelection(const std::vector<size_t>& ids,
                       UpdateStrategy strategy);

  /// Queries eligible for selection: unselected with a non-zero feature.
  std::vector<size_t> EligibleQueries() const;

  /// The head of every greedy round (Algorithm 2, line 12): the eligible
  /// queries, after resetting unselected features when none is eligible
  /// (every unselected query fully covered). Empty only when no unselected
  /// query has a feature even after the reset.
  std::vector<size_t> EligibleAfterReset();

 private:
  FeatureSpace space_;
  std::vector<SparseVector> original_rows_;  // one per class
  // Rows [0, num_classes()) are the classes' current rows, shared by their
  // unselected members; each selected query's own row is appended after.
  // Capacity for every query's detach is reserved up front, so appending
  // never moves a row a caller still references.
  std::vector<SparseVector> rows_;
  std::vector<uint32_t> class_of_;
  std::vector<uint32_t> row_of_;
  std::vector<double> utilities_;
  std::vector<double> original_utilities_;
  std::vector<bool> selected_;
  // One-vs-many probe buffer for SelectAndUpdate, reused across rounds.
  DenseScratch update_scratch_;
  // Per-class similarity to the selected query, reused across rounds.
  std::vector<double> class_sim_;
};

}  // namespace isum::core

#endif  // ISUM_CORE_COMPRESSION_STATE_H_
