#ifndef ISUM_ENGINE_OPTIMIZER_H_
#define ISUM_ENGINE_OPTIMIZER_H_

#include <string>
#include <vector>

#include "engine/cost_model.h"

namespace isum::engine {

/// How a table joins into the plan being built.
enum class JoinMethod { kNone, kHashJoin, kIndexNestedLoop, kCrossJoin };

const char* JoinMethodToString(JoinMethod method);

/// One table's placement in the (left-deep) join order.
struct PlannedTable {
  catalog::TableId table = catalog::kInvalidTableId;
  /// Access path chosen for the table. For kIndexNestedLoop the inner rows
  /// come through `inl_index` probes instead and `access.cost` is unused.
  AccessPath access;
  JoinMethod join_method = JoinMethod::kNone;
  const Index* inl_index = nullptr;  ///< set for kIndexNestedLoop
  double step_cost = 0.0;            ///< cost added by this step
  double cumulative_rows = 0.0;      ///< rows after joining this table
};

/// Cost and structure summary of an optimized query plan.
struct PlanSummary {
  double total_cost = 0.0;
  double output_rows = 0.0;
  std::vector<PlannedTable> tables;  ///< in join order
  bool sort_needed = false;
  bool sort_avoided_by_index = false;
  bool stream_aggregate = false;
  double aggregate_cost = 0.0;
  double sort_cost = 0.0;

  /// Multi-line plan rendering for demos and debugging.
  std::string Explain(const catalog::Catalog& catalog) const;
};

/// A cost-based single-block optimizer: chooses per-table access paths under
/// a (hypothetical) index configuration, a greedy left-deep join order with
/// hash-join vs. index-nested-loop selection, aggregation strategy and sort
/// placement (with single-table sort avoidance through index order).
///
/// This is the substrate standing in for the SQL Server optimizer in the
/// paper's pipeline; its estimated cost plays the role of C(q) / C_I(q).
class Optimizer {
 public:
  explicit Optimizer(const CostModel* cost_model) : cost_model_(cost_model) {}

  /// Returns the cheapest plan found for `query` under `config`.
  /// AccessPath::index pointers refer into `config`. Reads `config` only
  /// through IndexesOnTable(t) for the tables t the query references, so
  /// indexes on other tables never change the plan; greedy enumeration's
  /// delta costing (advisor/enumerator.cc) relies on this.
  PlanSummary Optimize(const sql::BoundQuery& query,
                       const Configuration& config) const;

  /// Convenience: the plan's total cost.
  double Cost(const sql::BoundQuery& query, const Configuration& config) const {
    return Optimize(query, config).total_cost;
  }

 private:
  const CostModel* cost_model_;
};

}  // namespace isum::engine

#endif  // ISUM_ENGINE_OPTIMIZER_H_
