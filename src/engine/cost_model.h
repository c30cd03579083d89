#ifndef ISUM_ENGINE_COST_MODEL_H_
#define ISUM_ENGINE_COST_MODEL_H_

#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "engine/configuration.h"
#include "sql/bound_query.h"
#include "stats/stats_manager.h"

namespace isum::engine {

/// Tunable constants of the cost model. Units are abstract "optimizer cost";
/// defaults roughly follow the classic 1 seq-page = 1.0 convention.
struct CostParams {
  double seq_page_cost = 1.0;
  double random_page_cost = 4.0;
  double cpu_tuple_cost = 0.01;
  double cpu_operator_cost = 0.0025;
  double hash_build_per_row = 0.02;
  double hash_probe_per_row = 0.01;
  /// Sort cost = rows * log2(effective) * this.
  double sort_factor = 0.02;
  /// Stream aggregation per input row.
  double stream_agg_per_row = 0.005;
};

/// True if `op` can extend an index seek prefix with an equality match.
inline bool IsEqualityOp(sql::PredicateOp op) {
  return op == sql::PredicateOp::kEq || op == sql::PredicateOp::kIn ||
         op == sql::PredicateOp::kIsNull;
}

/// True if `op` can terminate an index seek prefix with a range scan.
inline bool IsRangeOp(sql::PredicateOp op) {
  switch (op) {
    case sql::PredicateOp::kLt:
    case sql::PredicateOp::kLe:
    case sql::PredicateOp::kGt:
    case sql::PredicateOp::kGe:
    case sql::PredicateOp::kBetween:
    case sql::PredicateOp::kLike:  // sargable prefix patterns only reach here
      return true;
    default:
      return false;
  }
}

/// How a single table is accessed under a configuration.
struct AccessPath {
  /// Chosen index; nullptr means full table scan. Points into the
  /// Configuration the index list came from; valid while it lives.
  const Index* index = nullptr;
  double cost = 0.0;
  /// Rows produced after applying all of the query's filters on this table.
  double out_rows = 0.0;
  /// Rows fetched by the seek before residual filtering.
  double fetched_rows = 0.0;
  /// True if the index contains every column the query needs from the table.
  bool covering = false;
  /// True if the access yields rows in the desired order (sort avoidable).
  bool provides_order = false;
  /// Product of selectivities of predicates the seek itself applied.
  double seek_selectivity = 1.0;
};

/// Operator-level cost formulas shared by the optimizer and the advisor.
/// Stateless apart from catalog/statistics references.
class CostModel {
 public:
  CostModel(const catalog::Catalog* catalog, const stats::StatsManager* stats,
            CostParams params = {})
      : catalog_(catalog), stats_(stats), params_(params) {}

  const CostParams& params() const { return params_; }
  const catalog::Catalog& catalog() const { return *catalog_; }
  const stats::StatsManager& stats() const { return *stats_; }

  /// Cost of a full heap scan of `table` (CPU for all rows included).
  double FullScanCost(catalog::TableId table) const;

  /// Best access path for `table` given the query's filters on it.
  ///
  /// `filters` must only contain predicates on `table`. `required_columns`
  /// are the table's columns the query needs (drives covering checks);
  /// `desired_order` is the column sequence whose order would let the caller
  /// skip a sort (empty if none). Considers: full scan, covering index-only
  /// scan, and an index seek per index in `indexes`, which must all be on
  /// `table`.
  AccessPath BestAccessPath(
      catalog::TableId table, const std::vector<sql::FilterPredicate>& filters,
      const std::vector<catalog::ColumnId>& required_columns,
      const std::vector<catalog::ColumnId>& desired_order,
      const std::vector<const Index*>& indexes) const;

  /// The same over `config`'s indexes on `table`.
  AccessPath BestAccessPath(
      catalog::TableId table, const std::vector<sql::FilterPredicate>& filters,
      const std::vector<catalog::ColumnId>& required_columns,
      const std::vector<catalog::ColumnId>& desired_order,
      const Configuration& config) const {
    return BestAccessPath(table, filters, required_columns, desired_order,
                          config.IndexesOnTable(table));
  }

  /// Cost of sorting `rows` rows (top-N if `limit` set).
  double SortCost(double rows, std::optional<int64_t> limit) const;

  /// Hash join cost (build side chosen by caller).
  double HashJoinCost(double build_rows, double probe_rows) const;

  /// Hash aggregation of `rows` input rows into `groups` groups.
  double HashAggCost(double rows, double groups) const;

  /// Stream aggregation over pre-ordered input.
  double StreamAggCost(double rows) const;

  /// Cost of probing `index` once per outer row in an index nested-loop
  /// join: `outer_rows` probes, each fetching `rows_per_probe` inner rows.
  double IndexNestedLoopCost(const Index& index, double outer_rows,
                             double rows_per_probe, bool covering) const;

 private:
  /// Cost of an index seek matching `seek_selectivity` of the index entries,
  /// fetching `fetched_rows`, looking up base rows unless covering.
  double SeekCost(const Index& index, double seek_selectivity,
                  double fetched_rows, bool covering) const;

  const catalog::Catalog* catalog_;
  const stats::StatsManager* stats_;
  CostParams params_;
};

}  // namespace isum::engine

#endif  // ISUM_ENGINE_COST_MODEL_H_
