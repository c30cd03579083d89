#ifndef ISUM_CORE_WEIGHTING_H_
#define ISUM_CORE_WEIGHTING_H_

#include <cstdint>
#include <vector>

#include "core/features.h"
#include "sql/bound_query.h"
#include "stats/stats_manager.h"
#include "workload/workload.h"

namespace isum::core {

/// How indexable-column weights are computed (§4.2 of the paper).
enum class WeightingScheme {
  /// Fraction of rule-generated candidate indexes containing the column,
  /// times the table-size weight. ISUM's default.
  kRuleBased,
  /// (1 - selectivity) for filter/join columns, (1 - density) for
  /// group-by/order-by columns, times the table-size weight. ISUM-S.
  kStatsBased,
};

/// Featurization knobs.
struct FeaturizationOptions {
  WeightingScheme scheme = WeightingScheme::kRuleBased;
  /// Weigh columns by their table's relative size, w_table(t) = n(t)/Σn(t')
  /// over the query's tables. Disabled for the ISUM-NoTable ablation
  /// (Figure 10).
  bool use_table_weight = true;
};

/// Computes the paper's query features: one weight per indexable column,
/// min-max normalized per query (w̄ = w / (max - min), §4.2).
class Featurizer {
 public:
  Featurizer(const catalog::Catalog* catalog, const stats::StatsManager* stats,
             FeatureSpace* space)
      : catalog_(catalog), stats_(stats), space_(space) {}

  SparseVector Featurize(const sql::BoundQuery& query,
                         const FeaturizationOptions& options = {}) const;

 private:
  const catalog::Catalog* catalog_;
  const stats::StatsManager* stats_;
  FeatureSpace* space_;
};

/// A workload's features, one row per feature class: queries whose
/// featurization inputs are exactly equal (FeaturizeWorkload) share a row.
struct WorkloadFeatures {
  /// One row per class, in order of each class's first query.
  std::vector<SparseVector> rows;
  /// The class (row index) of each query.
  std::vector<uint32_t> class_of;
};

/// Featurizes `workload`, running Featurize once per feature class. The
/// class key is the exact ordered tuple of what Featurize reads — table ids,
/// sargable filter columns in the candidate generator's selectivity order,
/// every filter, complex-predicate, join, group-by and order-by column,
/// the stats-based scheme's selectivity bits and `use_table_weight` —
/// compared in full, so every query's row is bit-identical to its own
/// Featurize result and `space` assigns ids in the same order.
WorkloadFeatures FeaturizeWorkload(const workload::Workload& workload,
                                   const FeaturizationOptions& options,
                                   FeatureSpace* space);

}  // namespace isum::core

#endif  // ISUM_CORE_WEIGHTING_H_
