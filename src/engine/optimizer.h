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

/// The configuration-independent part of planning one query: its distinct
/// tables (a self-join folds into one slot) with the filters and columns
/// the query needs from each, each table's join edges, and the desired sort
/// order. Built once by Optimizer::Prepare and reused for every
/// configuration the query is costed under, the way INUM (PAPERS.md)
/// separates a plan's configuration-independent part from index access.
///
/// Borrows the BoundQuery it was prepared from, which must outlive it.
/// Immutable after construction, so threads may share one.
class PreparedQuery {
 private:
  friend class Optimizer;

  /// An equi-join predicate seen from one table: the slot of the table on
  /// the other side, this table's join column, the predicate's selectivity.
  struct JoinEdge {
    size_t other = 0;
    catalog::ColumnId column;
    double selectivity = 1.0;
  };

  struct Table {
    catalog::TableId table = catalog::kInvalidTableId;
    sql::JoinSemantics semantics = sql::JoinSemantics::kInner;
    std::vector<sql::FilterPredicate> filters;
    std::vector<catalog::ColumnId> required_columns;
    /// In query.joins order, so join selectivity products multiply in the
    /// same order as the predicates were bound.
    std::vector<JoinEdge> joins;
  };

  const sql::BoundQuery* query_ = nullptr;
  std::vector<Table> tables_;  ///< in FROM-list order
  /// Order whose availability lets a single-table plan skip its sort or
  /// stream its aggregate; empty for multi-table queries.
  std::vector<catalog::ColumnId> desired_order_;
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

  /// The configuration-independent part of planning `query`. Borrows
  /// `query`: it must outlive the result.
  static PreparedQuery Prepare(const sql::BoundQuery& query);

  /// False when no configuration can make the plan of `prepared` depend on
  /// `index`: then Optimize(prepared, C with `index` inserted anywhere)
  /// equals Optimize(prepared, C) in every PlanSummary field, bit for bit,
  /// for every C. The planner reads an index only on the query's slot for
  /// the index's table, and only through these four clauses, so CanUse is
  /// false when the query does not reference the table or none holds:
  ///  1. seek: the leading key is a sargable filter column with an equality
  ///     or range op (IsEqualityOp/IsRangeOp). Without one the seek prefix
  ///     in CostModel::BestAccessPath stays empty (`matched == 0`);
  ///  2. index nested loop: the leading key is one of the slot's join-edge
  ///     columns, the test Optimize's INL loop makes before it costs a
  ///     probe (`if (!usable) continue`);
  ///  3. covering: the index contains every required column of the slot;
  ///  4. order: a desired order exists and the leading key is its first
  ///     column. With an empty seek prefix, BestAccessPath `continue`s past
  ///     an index that is neither covering (3) nor order-providing (4).
  /// Clauses 3 and 4 are necessary, not sufficient, conditions for what
  /// BestAccessPath tests, so CanUse may be true for an index the plan
  /// then ignores, never false for one it uses.
  static bool CanUse(const PreparedQuery& prepared, const Index& index);

  /// Returns the cheapest plan found for the prepared query under `config`;
  /// a pure function of the two. AccessPath::index and inl_index pointers
  /// refer into `config`. Reads `config` only through IndexesOnTable(t),
  /// once per call, for the tables t the query references, so indexes on
  /// other tables never change the plan, and neither do indexes on its own
  /// tables that CanUse rejects; greedy enumeration (advisor/enumerator.cc)
  /// and evaluation (eval/pipeline.cc) rely on this.
  PlanSummary Optimize(const PreparedQuery& prepared,
                       const Configuration& config) const;

  /// Optimize(Prepare(query), config), for a query costed once. A caller
  /// that costs one query under many configurations prepares it once.
  PlanSummary Optimize(const sql::BoundQuery& query,
                       const Configuration& config) const {
    return Optimize(Prepare(query), config);
  }

  /// Convenience: the plan's total cost.
  double Cost(const PreparedQuery& prepared,
              const Configuration& config) const {
    return Optimize(prepared, config).total_cost;
  }
  double Cost(const sql::BoundQuery& query, const Configuration& config) const {
    return Optimize(query, config).total_cost;
  }

 private:
  const CostModel* cost_model_;
};

}  // namespace isum::engine

#endif  // ISUM_ENGINE_OPTIMIZER_H_
