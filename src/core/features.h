#ifndef ISUM_CORE_FEATURES_H_
#define ISUM_CORE_FEATURES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"

namespace isum::core {

/// Interns indexable columns ("table.column") into dense feature ids shared
/// across a workload, so query features are small sorted sparse vectors.
class FeatureSpace {
 public:
  /// Returns the feature id for `column`, creating one if needed.
  int GetOrCreate(catalog::ColumnId column);

  /// Returns the feature id or -1 if the column was never interned.
  int Find(catalog::ColumnId column) const;

  /// The column behind feature id `id`.
  catalog::ColumnId column(int id) const { return columns_[id]; }

  size_t size() const { return columns_.size(); }

 private:
  std::unordered_map<catalog::ColumnId, int> ids_;
  std::vector<catalog::ColumnId> columns_;
};

/// A sparse non-negative feature vector: sorted (feature id, weight) pairs.
/// This is the paper's "query features" representation (Definition 6) and
/// also holds workload summary features (Definition 11).
class SparseVector {
 public:
  struct Entry {
    int feature;
    double weight;
  };

  SparseVector() = default;

  /// Builds from unsorted (feature, weight) pairs; duplicate features sum.
  static SparseVector FromPairs(std::vector<Entry> entries);

  /// Sets `feature` to `weight` (inserting or overwriting; 0 removes).
  void Set(int feature, double weight);

  /// Weight for `feature`, 0 if absent.
  double Get(int feature) const;

  const std::vector<Entry>& entries() const { return entries_; }
  size_t nnz() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// True if every stored weight is zero (or the vector is empty).
  bool AllZero() const;

  /// Sum of weights.
  double Sum() const;

  /// this += other * scale (union of supports).
  void AddScaled(const SparseVector& other, double scale);

  /// Same, but merges into `*scratch` instead of a freshly allocated vector
  /// and swaps it in, so a caller that AddScales in a loop reuses one
  /// buffer's capacity across iterations instead of allocating per call.
  /// `scratch` holds this vector's previous entries afterwards.
  void AddScaled(const SparseVector& other, double scale,
                 std::vector<Entry>* scratch);

  /// this -= other * scale, clamping weights at 0.
  void SubtractScaledClamped(const SparseVector& other, double scale);

  /// Multiplies every weight by `scale`.
  void Scale(double scale);

  /// Subtracts `delta` from every *present* weight, clamping at 0
  /// (the paper's "weight subtract" update option, §4.3).
  void SubtractFromAllClamped(double delta);

  /// Zeroes every feature that is present with weight > 0 in `mask`
  /// (the paper's "feature remove/cover" update option, §4.3).
  void ZeroWhere(const SparseVector& mask);

 private:
  std::vector<Entry> entries_;  // sorted by feature id
};

/// Weighted Jaccard similarity (paper §4.2):
///   sum_c min(a_c, b_c) / sum_c max(a_c, b_c);  0 when both empty.
double WeightedJaccard(const SparseVector& a, const SparseVector& b);

/// A reusable dense scatter buffer over the feature-id range: scatter one
/// sparse vector, probe any feature at O(1), clear only the touched slots.
/// This is the probe side of the one-vs-many Jaccard kernels — scattering
/// the shared operand once turns each pairwise sorted merge into a linear
/// gather over the other row's nonzeros.
class DenseScratch {
 public:
  /// Ensures slots for feature ids < num_features exist and are zero.
  /// Growing never shrinks, so one scratch serves a whole selection run.
  void Reserve(size_t num_features);

  /// Replaces the scattered vector (clearing the previous one) and caches
  /// its weight sum for the sum-identity kernels.
  void Scatter(const SparseVector& v);

  double Get(int feature) const {
    return static_cast<size_t>(feature) < dense_.size() ? dense_[feature] : 0.0;
  }
  /// Sum of the scattered weights (entry order).
  double sum() const { return sum_; }

 private:
  std::vector<double> dense_;
  std::vector<int32_t> touched_;
  double sum_ = 0.0;
};

/// Weighted Jaccard of the scattered query against one sparse row in
/// O(nnz(row)) via the sum identity max(a,b) = a + b - min(a,b):
///   min_sum  = sum_{c in row} min(row_c, q_c)   (gathered in feature order)
///   max_sum  = sum(q) + sum(row) - min_sum.
/// min_sum is bit-identical to the sorted-merge WeightedJaccard; max_sum may
/// differ by a few ulp (different summation order), which every caller
/// tolerates. Requires non-negative weights, as everywhere in this module.
double WeightedJaccardVsDense(const DenseScratch& query,
                              const SparseVector& row);

}  // namespace isum::core

#endif  // ISUM_CORE_FEATURES_H_
