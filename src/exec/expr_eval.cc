#include "exec/expr_eval.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/trace.h"
#include "sql/binder.h"

namespace isum::exec {

AliasMap BuildAliasMap(const sql::BoundQuery& query) {
  AliasMap out;
  for (const sql::BoundTableRef& ref : query.tables) {
    out[ToLower(ref.effective_name)] = ref.table;
  }
  return out;
}

std::optional<catalog::ColumnId> ExpressionEvaluator::Resolve(
    const sql::ColumnRefExpression& ref) const {
  if (!ref.table().empty()) {
    auto it = alias_map_->find(ToLower(ref.table()));
    if (it == alias_map_->end()) return std::nullopt;
    const int32_t ord = catalog_->table(it->second).FindColumn(ref.column());
    if (ord < 0) return std::nullopt;
    return catalog::ColumnId{it->second, ord};
  }
  std::optional<catalog::ColumnId> found;
  for (const auto& [name, table] : *alias_map_) {
    const int32_t ord = catalog_->table(table).FindColumn(ref.column());
    if (ord >= 0) {
      if (found.has_value()) return std::nullopt;  // ambiguous
      found = catalog::ColumnId{table, ord};
    }
  }
  return found;
}

std::optional<double> ExpressionEvaluator::ScalarImpl(
    const sql::Expression& expr, const ValueFn& value_of) const {
  switch (expr.kind()) {
    case sql::ExpressionKind::kLiteral:
      return sql::EncodeLiteral(
          static_cast<const sql::LiteralExpression&>(expr));
    case sql::ExpressionKind::kColumnRef: {
      auto id = Resolve(static_cast<const sql::ColumnRefExpression&>(expr));
      if (!id.has_value()) return std::nullopt;
      return value_of(*id);
    }
    case sql::ExpressionKind::kBinary: {
      const auto& bin = static_cast<const sql::BinaryExpression&>(expr);
      auto l = ScalarImpl(bin.lhs(), value_of);
      auto r = ScalarImpl(bin.rhs(), value_of);
      if (!l || !r) return std::nullopt;
      switch (bin.op()) {
        case sql::BinaryOp::kPlus:
          return *l + *r;
        case sql::BinaryOp::kMinus:
          return *l - *r;
        case sql::BinaryOp::kMul:
          return *l * *r;
        case sql::BinaryOp::kDiv:
          return *r == 0.0 ? std::nullopt : std::optional<double>(*l / *r);
        default:
          return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

std::optional<bool> ExpressionEvaluator::BooleanImpl(
    const sql::Expression& expr, const ValueFn& value_of) const {
  switch (expr.kind()) {
    case sql::ExpressionKind::kBinary: {
      const auto& bin = static_cast<const sql::BinaryExpression&>(expr);
      if (bin.op() == sql::BinaryOp::kAnd) {
        auto l = BooleanImpl(bin.lhs(), value_of);
        auto r = BooleanImpl(bin.rhs(), value_of);
        if (!l || !r) return std::nullopt;
        return *l && *r;
      }
      if (bin.op() == sql::BinaryOp::kOr) {
        auto l = BooleanImpl(bin.lhs(), value_of);
        auto r = BooleanImpl(bin.rhs(), value_of);
        if (!l || !r) return std::nullopt;
        return *l || *r;
      }
      if (!sql::IsComparison(bin.op())) return std::nullopt;
      auto l = ScalarImpl(bin.lhs(), value_of);
      auto r = ScalarImpl(bin.rhs(), value_of);
      if (!l || !r) return std::nullopt;
      switch (bin.op()) {
        case sql::BinaryOp::kEq:
          return *l == *r;
        case sql::BinaryOp::kNotEq:
          return *l != *r;
        case sql::BinaryOp::kLt:
          return *l < *r;
        case sql::BinaryOp::kLe:
          return *l <= *r;
        case sql::BinaryOp::kGt:
          return *l > *r;
        case sql::BinaryOp::kGe:
          return *l >= *r;
        default:
          return std::nullopt;
      }
    }
    case sql::ExpressionKind::kUnaryNot: {
      auto inner = BooleanImpl(
          static_cast<const sql::UnaryNotExpression&>(expr).child(), value_of);
      if (!inner) return std::nullopt;
      return !*inner;
    }
    case sql::ExpressionKind::kIn: {
      const auto& in = static_cast<const sql::InExpression&>(expr);
      auto operand = ScalarImpl(in.operand(), value_of);
      if (!operand) return std::nullopt;
      bool found = false;
      for (const auto& v : in.values()) {
        auto value = ScalarImpl(*v, value_of);
        if (!value) return std::nullopt;
        found = found || (*operand == *value);
      }
      return in.negated() ? !found : found;
    }
    case sql::ExpressionKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpression&>(expr);
      auto operand = ScalarImpl(bt.operand(), value_of);
      auto lo = ScalarImpl(bt.lo(), value_of);
      auto hi = ScalarImpl(bt.hi(), value_of);
      if (!operand || !lo || !hi) return std::nullopt;
      const bool in_range = *operand >= *lo && *operand <= *hi;
      return bt.negated() ? !in_range : in_range;
    }
    // LIKE patterns and IS NULL have no row-level semantics over encoded
    // doubles; unflattened subqueries are opaque.
    case sql::ExpressionKind::kLike:
    case sql::ExpressionKind::kIsNull:
    case sql::ExpressionKind::kExists:
    case sql::ExpressionKind::kInSubquery:
    default:
      return std::nullopt;
  }
}

std::optional<double> ExpressionEvaluator::Scalar(
    const sql::Expression& expr, const ValueFn& value_of) const {
  return ScalarImpl(expr, value_of);
}

std::optional<bool> ExpressionEvaluator::Boolean(
    const sql::Expression& expr, const ValueFn& value_of) const {
  ISUM_TRACE_SPAN("exec/expr-eval");
  return BooleanImpl(expr, value_of);
}

}  // namespace isum::exec
