#ifndef ISUM_EXEC_EXPR_EVAL_H_
#define ISUM_EXEC_EXPR_EVAL_H_

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "catalog/catalog.h"
#include "sql/ast.h"
#include "sql/bound_query.h"

namespace isum::exec {

/// Lower-cased effective table name (alias, else table name) -> table id.
using AliasMap = std::unordered_map<std::string, catalog::TableId>;

/// The name scope the binder resolved `query`'s column references in,
/// rebuilt from `query.tables`: a later entry with the same name wins, as in
/// the binder's scope. Exec owns this map; BoundQuery does not carry it.
AliasMap BuildAliasMap(const sql::BoundQuery& query);

/// Interprets retained predicate expressions (BoundQuery's complex
/// predicates) against row values, so the execution substrate can evaluate
/// OR trees, column-vs-column comparisons and arithmetic exactly instead of
/// Bernoulli-sampling at estimated selectivity. Returns nullopt for
/// constructs with no row-level semantics here (LIKE on hashed strings,
/// IS NULL with no materialized nulls, unflattened subqueries) — callers
/// fall back to their selectivity-based approximation.
class ExpressionEvaluator {
 public:
  /// `value_of` yields the current row's value for a resolved column.
  using ValueFn = std::function<std::optional<double>(catalog::ColumnId)>;

  /// `alias_map` comes from BuildAliasMap; `catalog` resolves column
  /// ordinals. Both must outlive the evaluator.
  ExpressionEvaluator(const catalog::Catalog* catalog,
                      const AliasMap* alias_map)
      : catalog_(catalog), alias_map_(alias_map) {}

  /// Numeric value of a scalar expression; nullopt if not evaluable.
  std::optional<double> Scalar(const sql::Expression& expr,
                               const ValueFn& value_of) const;

  /// Truth value of a boolean expression; nullopt if not evaluable.
  /// Emits one "exec/expr-eval" span per top-level call (recursion into
  /// sub-expressions does not nest spans), so a traced hot loop records
  /// one span per row.
  std::optional<bool> Boolean(const sql::Expression& expr,
                              const ValueFn& value_of) const;

 private:
  std::optional<catalog::ColumnId> Resolve(
      const sql::ColumnRefExpression& ref) const;

  /// Recursive cores (no tracing, so spans do not nest per sub-expression).
  std::optional<double> ScalarImpl(const sql::Expression& expr,
                                   const ValueFn& value_of) const;
  std::optional<bool> BooleanImpl(const sql::Expression& expr,
                                  const ValueFn& value_of) const;

  const catalog::Catalog* catalog_;
  const AliasMap* alias_map_;
};

}  // namespace isum::exec

#endif  // ISUM_EXEC_EXPR_EVAL_H_
