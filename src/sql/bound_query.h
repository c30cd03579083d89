#ifndef ISUM_SQL_BOUND_QUERY_H_
#define ISUM_SQL_BOUND_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"

namespace isum::sql {

class Expression;  // ast.h; retained predicates reference bound AST nodes

/// Operator of a bound (per-column) filter predicate.
enum class PredicateOp {
  kEq,
  kNotEq,
  kLt,
  kLe,
  kGt,
  kGe,
  kIn,
  kBetween,
  kLike,
  kIsNull,
  kComplex,  ///< single-column but not index-sargable (OR trees, arithmetic)
};

/// Returns a short spelling ("=", "IN", ...).
const char* PredicateOpToString(PredicateOp op);

/// A filter on one column with literals encoded as doubles (dates become
/// days-since-epoch, strings a stable hash). `selectivity` is estimated at
/// bind time from column statistics.
struct FilterPredicate {
  catalog::ColumnId column;
  PredicateOp op = PredicateOp::kEq;
  std::vector<double> values;
  double selectivity = 1.0;
  /// True if an index seek can evaluate this predicate (point/range/prefix).
  bool sargable = true;
  /// Original expression, retained for kComplex predicates so the execution
  /// substrate can evaluate them exactly (shared: BoundQuery stays copyable).
  std::shared_ptr<const Expression> expr;
};

/// An equi-join between columns of two different tables.
struct JoinPredicate {
  catalog::ColumnId left;
  catalog::ColumnId right;
  /// Estimated join selectivity: 1 / max(distinct(left), distinct(right)).
  double selectivity = 1.0;
};

/// A residual predicate spanning several columns or tables (e.g. an OR across
/// tables, or a comparison between columns). Costed, never indexed.
struct ComplexPredicate {
  std::vector<catalog::ColumnId> columns;
  double selectivity = 1.0;
  /// Original expression (see FilterPredicate::expr).
  std::shared_ptr<const Expression> expr;
};

/// How a table participates in the join (subquery flattening, §binder):
/// kSemi/kAnti tables came from [NOT] EXISTS / [NOT] IN subqueries and cap
/// rather than multiply the output cardinality.
enum class JoinSemantics { kInner, kSemi, kAnti };

/// One bound FROM-list entry.
struct BoundTableRef {
  catalog::TableId table = catalog::kInvalidTableId;
  std::string effective_name;  ///< alias if present, else table name
  JoinSemantics semantics = JoinSemantics::kInner;
};

/// Aggregate function kinds appearing in the select list.
enum class AggregateKind { kCount, kSum, kAvg, kMin, kMax };

/// One aggregate in the select list (argument column if a plain column).
struct AggregateRef {
  AggregateKind kind = AggregateKind::kCount;
  catalog::ColumnId argument;  ///< invalid for COUNT(*) or expression args
  bool distinct = false;
};

/// A fully resolved single-block query: everything the optimizer, the index
/// advisor and ISUM's featurization need, with all names resolved to
/// catalog ids and all literals encoded and selectivity-estimated.
struct BoundQuery {
  std::vector<BoundTableRef> tables;
  std::vector<FilterPredicate> filters;
  std::vector<JoinPredicate> joins;
  std::vector<ComplexPredicate> complex_predicates;

  std::vector<catalog::ColumnId> group_by_columns;
  /// (column, descending) pairs.
  std::vector<std::pair<catalog::ColumnId, bool>> order_by_columns;
  /// Plain columns projected by the select list (incl. aggregate arguments);
  /// drives covering-index analysis.
  std::vector<catalog::ColumnId> output_columns;
  std::vector<AggregateRef> aggregates;

  bool distinct = false;
  bool select_star = false;
  /// Selectivity of the HAVING clause applied to aggregated groups
  /// (1.0 when absent). HAVING predicates are never indexable; only their
  /// cardinality effect is modeled.
  double having_selectivity = 1.0;
  std::optional<int64_t> limit;

  uint64_t template_hash = 0;

  /// True if the query references table `t`.
  bool ReferencesTable(catalog::TableId t) const;

  /// Product of the selectivities of all filters on table `t` (complex
  /// single-table predicates included). 1.0 when unfiltered.
  double TableFilterSelectivity(catalog::TableId t) const;

  /// All distinct columns mentioned anywhere in the query, sorted by
  /// (table, column).
  std::vector<catalog::ColumnId> ReferencedColumns() const;
};

}  // namespace isum::sql

#endif  // ISUM_SQL_BOUND_QUERY_H_
