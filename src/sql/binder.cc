#include "sql/binder.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/string_util.h"
#include "sql/templatizer.h"

namespace isum::sql {

namespace {

// Default selectivities for predicates statistics cannot see through.
constexpr double kDefaultComplexSelectivity = 0.33;
constexpr double kLikePrefixSelectivity = 0.05;
constexpr double kLikeContainsSelectivity = 0.09;
constexpr double kMinSelectivity = 1e-9;

/// Name-resolution scope for one statement.
class Scope {
 public:
  Scope(const catalog::Catalog& catalog, const std::vector<TableRef>& from)
      : catalog_(catalog) {
    for (const TableRef& ref : from) {
      const catalog::Table* t = catalog.FindTable(ref.table_name);
      tables_.push_back(
          BoundTableRef{t == nullptr ? catalog::kInvalidTableId : t->id(),
                        ref.effective_name()});
      if (t != nullptr) by_name_[ToLower(ref.effective_name())] = t->id();
    }
  }

  Status Validate(const std::vector<TableRef>& from) const {
    for (size_t i = 0; i < tables_.size(); ++i) {
      if (tables_[i].table == catalog::kInvalidTableId) {
        return Status::BindError("unknown table '" + from[i].table_name + "'");
      }
    }
    return Status::OK();
  }

  const std::vector<BoundTableRef>& tables() const { return tables_; }

  StatusOr<catalog::ColumnId> Resolve(const ColumnRefExpression& ref) const {
    if (!ref.table().empty()) {
      auto it = by_name_.find(ToLower(ref.table()));
      if (it == by_name_.end()) {
        return Status::BindError("unknown table or alias '" + ref.table() + "'");
      }
      const catalog::Table& t = catalog_.table(it->second);
      const int32_t ord = t.FindColumn(ref.column());
      if (ord < 0) {
        return Status::BindError("unknown column '" + ref.table() + "." +
                                 ref.column() + "'");
      }
      return catalog::ColumnId{it->second, ord};
    }
    catalog::ColumnId found{};
    for (const BoundTableRef& bt : tables_) {
      const catalog::Table& t = catalog_.table(bt.table);
      const int32_t ord = t.FindColumn(ref.column());
      if (ord >= 0) {
        if (found.valid()) {
          return Status::BindError("ambiguous column '" + ref.column() + "'");
        }
        found = catalog::ColumnId{bt.table, ord};
      }
    }
    if (!found.valid()) {
      return Status::BindError("unknown column '" + ref.column() + "'");
    }
    return found;
  }

 private:
  const catalog::Catalog& catalog_;
  std::vector<BoundTableRef> tables_;
  std::unordered_map<std::string, catalog::TableId> by_name_;
};

void FlattenConjuncts(const Expression& expr,
                      std::vector<const Expression*>* out) {
  if (expr.kind() == ExpressionKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpression&>(expr);
    if (bin.op() == BinaryOp::kAnd) {
      FlattenConjuncts(bin.lhs(), out);
      FlattenConjuncts(bin.rhs(), out);
      return;
    }
  }
  out->push_back(&expr);
}

// --- Subquery flattening: [NOT] EXISTS / [NOT] IN (SELECT ...) conjuncts
// become semi/anti-joined tables of the outer block, the way index advisors
// see them after view unnesting. ---

using SemanticsMap = std::unordered_map<std::string, JoinSemantics>;

Status FlattenSubqueries(SelectStatement* stmt, SemanticsMap* semantics,
                         int depth);

/// Merges `sub`'s (already flattened) tables and WHERE into `stmt`.
Status MergeSubquery(SelectStatement* stmt, SelectStatement sub, bool negated,
                     SemanticsMap* semantics,
                     std::vector<ExpressionPtr>* conjuncts) {
  if (!sub.group_by.empty() || sub.having != nullptr || sub.limit.has_value() ||
      sub.distinct) {
    return Status::Unimplemented(
        "cannot flatten subquery with GROUP BY/HAVING/LIMIT/DISTINCT");
  }
  // Alias-conflict check against the outer FROM list.
  std::unordered_set<std::string> outer_names;
  for (const TableRef& ref : stmt->from) {
    outer_names.insert(ToLower(ref.effective_name()));
  }
  const JoinSemantics mark =
      negated ? JoinSemantics::kAnti : JoinSemantics::kSemi;
  for (TableRef& ref : sub.from) {
    const std::string key = ToLower(ref.effective_name());
    if (outer_names.contains(key)) {
      return Status::Unimplemented("subquery table '" + ref.effective_name() +
                                   "' collides with an outer table; alias it");
    }
    // Keep an existing (nested) mark; anti dominates.
    auto it = semantics->find(key);
    if (it == semantics->end() || mark == JoinSemantics::kAnti) {
      (*semantics)[key] = mark;
    }
    stmt->from.push_back(ref);
  }
  if (sub.where != nullptr) conjuncts->push_back(std::move(sub.where));
  return Status::OK();
}

Status FlattenSubqueries(SelectStatement* stmt, SemanticsMap* semantics,
                         int depth) {
  if (depth > 8) return Status::Unimplemented("subquery nesting too deep");
  if (stmt->where == nullptr) return Status::OK();

  std::vector<const Expression*> conjuncts;
  FlattenConjuncts(*stmt->where, &conjuncts);
  bool any_subquery = false;
  for (const Expression* c : conjuncts) {
    if (c->kind() == ExpressionKind::kExists ||
        c->kind() == ExpressionKind::kInSubquery) {
      any_subquery = true;
      break;
    }
  }
  if (!any_subquery) return Status::OK();

  std::vector<ExpressionPtr> rebuilt;
  for (const Expression* c : conjuncts) {
    switch (c->kind()) {
      case ExpressionKind::kExists: {
        const auto& e = static_cast<const ExistsExpression&>(*c);
        SelectStatement sub = e.subquery().Clone();
        ISUM_RETURN_IF_ERROR(FlattenSubqueries(&sub, semantics, depth + 1));
        ISUM_RETURN_IF_ERROR(
            MergeSubquery(stmt, std::move(sub), e.negated(), semantics,
                          &rebuilt));
        break;
      }
      case ExpressionKind::kInSubquery: {
        const auto& e = static_cast<const InSubqueryExpression&>(*c);
        SelectStatement sub = e.subquery().Clone();
        ISUM_RETURN_IF_ERROR(FlattenSubqueries(&sub, semantics, depth + 1));
        if (sub.select_list.size() != 1 ||
            sub.select_list[0].expr->kind() == ExpressionKind::kStar ||
            sub.select_list[0].expr->kind() == ExpressionKind::kFunctionCall) {
          return Status::Unimplemented(
              "IN subquery must select exactly one plain expression");
        }
        // operand = subquery's select item becomes the (semi) join predicate.
        rebuilt.push_back(std::make_unique<BinaryExpression>(
            BinaryOp::kEq, e.operand().Clone(),
            sub.select_list[0].expr->Clone()));
        ISUM_RETURN_IF_ERROR(
            MergeSubquery(stmt, std::move(sub), e.negated(), semantics,
                          &rebuilt));
        break;
      }
      default:
        rebuilt.push_back(c->Clone());
        break;
    }
  }
  // Rebuild the AND chain.
  ExpressionPtr where;
  for (ExpressionPtr& c : rebuilt) {
    where = where == nullptr
                ? std::move(c)
                : std::make_unique<BinaryExpression>(
                      BinaryOp::kAnd, std::move(where), std::move(c));
  }
  stmt->where = std::move(where);
  return Status::OK();
}

/// Folds a literal-only expression tree to a numeric constant.
std::optional<double> ConstantFold(const Expression& expr) {
  switch (expr.kind()) {
    case ExpressionKind::kLiteral:
      return EncodeLiteral(static_cast<const LiteralExpression&>(expr));
    case ExpressionKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpression&>(expr);
      auto l = ConstantFold(bin.lhs());
      auto r = ConstantFold(bin.rhs());
      if (!l || !r) return std::nullopt;
      switch (bin.op()) {
        case BinaryOp::kPlus:
          return *l + *r;
        case BinaryOp::kMinus:
          return *l - *r;
        case BinaryOp::kMul:
          return *l * *r;
        case BinaryOp::kDiv:
          return *r == 0.0 ? std::nullopt : std::optional<double>(*l / *r);
        default:
          return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

/// Collects all column ids referenced anywhere in `expr`.
Status CollectColumns(const Expression& expr, const Scope& scope,
                      std::vector<catalog::ColumnId>* out) {
  switch (expr.kind()) {
    case ExpressionKind::kColumnRef: {
      ISUM_ASSIGN_OR_RETURN(
          catalog::ColumnId id,
          scope.Resolve(static_cast<const ColumnRefExpression&>(expr)));
      out->push_back(id);
      return Status::OK();
    }
    case ExpressionKind::kLiteral:
    case ExpressionKind::kStar:
      return Status::OK();
    case ExpressionKind::kBinary: {
      const auto& e = static_cast<const BinaryExpression&>(expr);
      ISUM_RETURN_IF_ERROR(CollectColumns(e.lhs(), scope, out));
      return CollectColumns(e.rhs(), scope, out);
    }
    case ExpressionKind::kUnaryNot:
      return CollectColumns(
          static_cast<const UnaryNotExpression&>(expr).child(), scope, out);
    case ExpressionKind::kIn: {
      const auto& e = static_cast<const InExpression&>(expr);
      ISUM_RETURN_IF_ERROR(CollectColumns(e.operand(), scope, out));
      for (const auto& v : e.values()) {
        ISUM_RETURN_IF_ERROR(CollectColumns(*v, scope, out));
      }
      return Status::OK();
    }
    case ExpressionKind::kBetween: {
      const auto& e = static_cast<const BetweenExpression&>(expr);
      ISUM_RETURN_IF_ERROR(CollectColumns(e.operand(), scope, out));
      ISUM_RETURN_IF_ERROR(CollectColumns(e.lo(), scope, out));
      return CollectColumns(e.hi(), scope, out);
    }
    case ExpressionKind::kLike:
      return CollectColumns(static_cast<const LikeExpression&>(expr).operand(),
                            scope, out);
    case ExpressionKind::kIsNull:
      return CollectColumns(
          static_cast<const IsNullExpression&>(expr).operand(), scope, out);
    case ExpressionKind::kFunctionCall: {
      const auto& e = static_cast<const FunctionCallExpression&>(expr);
      for (const auto& a : e.args()) {
        ISUM_RETURN_IF_ERROR(CollectColumns(*a, scope, out));
      }
      return Status::OK();
    }
    case ExpressionKind::kExists:
    case ExpressionKind::kInSubquery:
      // Unflattened subqueries (inside OR branches) stay opaque: their
      // columns belong to a scope we did not merge.
      return Status::OK();
  }
  return Status::OK();
}

const ColumnRefExpression* AsColumnRef(const Expression& expr) {
  return expr.kind() == ExpressionKind::kColumnRef
             ? static_cast<const ColumnRefExpression*>(&expr)
             : nullptr;
}

bool LikePatternHasSargablePrefix(const std::string& pattern) {
  return !pattern.empty() && pattern[0] != '%' && pattern[0] != '_';
}

/// Recursive selectivity estimator for arbitrary boolean expressions
/// (used for residual/complex predicates).
double EstimateBooleanSelectivity(const Expression& expr, const Scope& scope,
                                  const stats::StatsManager& stats) {
  switch (expr.kind()) {
    case ExpressionKind::kBinary: {
      const auto& e = static_cast<const BinaryExpression&>(expr);
      if (e.op() == BinaryOp::kAnd) {
        return EstimateBooleanSelectivity(e.lhs(), scope, stats) *
               EstimateBooleanSelectivity(e.rhs(), scope, stats);
      }
      if (e.op() == BinaryOp::kOr) {
        const double a = EstimateBooleanSelectivity(e.lhs(), scope, stats);
        const double b = EstimateBooleanSelectivity(e.rhs(), scope, stats);
        return std::clamp(a + b - a * b, 0.0, 1.0);
      }
      if (IsComparison(e.op())) {
        const ColumnRefExpression* lcol = AsColumnRef(e.lhs());
        const ColumnRefExpression* rcol = AsColumnRef(e.rhs());
        if (lcol != nullptr && rcol != nullptr) {
          auto l = scope.Resolve(*lcol);
          auto r = scope.Resolve(*rcol);
          if (l.ok() && r.ok()) {
            const double d = std::max(stats.DistinctCount(l.value()),
                                      stats.DistinctCount(r.value()));
            return e.op() == BinaryOp::kEq ? 1.0 / std::max(1.0, d)
                                           : kDefaultComplexSelectivity;
          }
          return kDefaultComplexSelectivity;
        }
        const ColumnRefExpression* col = lcol != nullptr ? lcol : rcol;
        const Expression& other = lcol != nullptr ? e.rhs() : e.lhs();
        if (col != nullptr) {
          auto id = scope.Resolve(*col);
          auto value = ConstantFold(other);
          if (id.ok() && value.has_value()) {
            switch (e.op()) {
              case BinaryOp::kEq:
                return stats.SelectivityEquals(id.value(), *value);
              case BinaryOp::kNotEq:
                return 1.0 - stats.SelectivityEquals(id.value(), *value);
              case BinaryOp::kLt:
              case BinaryOp::kLe:
                return stats.SelectivityRange(id.value(), std::nullopt, *value);
              case BinaryOp::kGt:
              case BinaryOp::kGe:
                return stats.SelectivityRange(id.value(), *value, std::nullopt);
              default:
                break;
            }
          }
        }
        return kDefaultComplexSelectivity;
      }
      return kDefaultComplexSelectivity;
    }
    case ExpressionKind::kUnaryNot:
      return std::clamp(
          1.0 - EstimateBooleanSelectivity(
                    static_cast<const UnaryNotExpression&>(expr).child(), scope,
                    stats),
          0.0, 1.0);
    case ExpressionKind::kIn: {
      const auto& e = static_cast<const InExpression&>(expr);
      const ColumnRefExpression* col = AsColumnRef(e.operand());
      if (col != nullptr) {
        auto id = scope.Resolve(*col);
        if (id.ok()) {
          double sel = 0.0;
          for (const auto& v : e.values()) {
            auto value = ConstantFold(*v);
            sel += value.has_value()
                       ? stats.SelectivityEquals(id.value(), *value)
                       : stats.Density(id.value());
          }
          sel = std::clamp(sel, 0.0, 1.0);
          return e.negated() ? 1.0 - sel : sel;
        }
      }
      return kDefaultComplexSelectivity;
    }
    case ExpressionKind::kBetween: {
      const auto& e = static_cast<const BetweenExpression&>(expr);
      const ColumnRefExpression* col = AsColumnRef(e.operand());
      if (col != nullptr) {
        auto id = scope.Resolve(*col);
        auto lo = ConstantFold(e.lo());
        auto hi = ConstantFold(e.hi());
        if (id.ok() && lo.has_value() && hi.has_value()) {
          const double sel = stats.SelectivityRange(id.value(), *lo, *hi);
          return e.negated() ? 1.0 - sel : sel;
        }
      }
      return kDefaultComplexSelectivity;
    }
    case ExpressionKind::kLike: {
      const auto& e = static_cast<const LikeExpression&>(expr);
      const double sel = LikePatternHasSargablePrefix(e.pattern())
                             ? kLikePrefixSelectivity
                             : kLikeContainsSelectivity;
      return e.negated() ? 1.0 - sel : sel;
    }
    case ExpressionKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpression&>(expr);
      const ColumnRefExpression* col = AsColumnRef(e.operand());
      double nf = 0.01;
      if (col != nullptr) {
        auto id = scope.Resolve(*col);
        if (id.ok()) nf = std::max(stats.GetStats(id.value()).null_fraction, 0.001);
      }
      return e.negated() ? 1.0 - nf : nf;
    }
    default:
      return kDefaultComplexSelectivity;
  }
}

}  // namespace

const char* PredicateOpToString(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq:
      return "=";
    case PredicateOp::kNotEq:
      return "<>";
    case PredicateOp::kLt:
      return "<";
    case PredicateOp::kLe:
      return "<=";
    case PredicateOp::kGt:
      return ">";
    case PredicateOp::kGe:
      return ">=";
    case PredicateOp::kIn:
      return "IN";
    case PredicateOp::kBetween:
      return "BETWEEN";
    case PredicateOp::kLike:
      return "LIKE";
    case PredicateOp::kIsNull:
      return "IS NULL";
    case PredicateOp::kComplex:
      return "<complex>";
  }
  return "?";
}

std::optional<double> ParseIsoDate(const std::string& text) {
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') return std::nullopt;
  for (size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u}) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) return std::nullopt;
  }
  const int y = std::stoi(text.substr(0, 4));
  const unsigned m = static_cast<unsigned>(std::stoi(text.substr(5, 2)));
  const unsigned d = static_cast<unsigned>(std::stoi(text.substr(8, 2)));
  if (m < 1 || m > 12 || d < 1 || d > 31) return std::nullopt;
  // Howard Hinnant's days_from_civil.
  const int yy = y - (m <= 2);
  const int era = (yy >= 0 ? yy : yy - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(yy - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<double>(era * 146097 + static_cast<int>(doe) - 719468);
}

double EncodeLiteral(const LiteralExpression& lit) {
  switch (lit.literal_kind()) {
    case LiteralKind::kNumber:
      return lit.number();
    case LiteralKind::kString: {
      auto date = ParseIsoDate(lit.string_value());
      if (date.has_value()) return *date;
      // Stable hash folded into a modest positive range so string literals
      // are usable with density-based equality estimation.
      return static_cast<double>(HashBytes(lit.string_value()) % 1000003ull);
    }
    case LiteralKind::kNull:
      return 0.0;
  }
  return 0.0;
}

StatusOr<BoundQuery> Binder::Bind(const SelectStatement& original) const {
  BoundQuery out;
  // Template identity reflects the SQL as written, pre-flattening.
  out.template_hash = TemplateHash(original);

  // Flatten [NOT] EXISTS / [NOT] IN subqueries into semi/anti joins.
  SelectStatement flattened = original.Clone();
  SemanticsMap semantics;
  ISUM_RETURN_IF_ERROR(FlattenSubqueries(&flattened, &semantics, 0));
  const SelectStatement& stmt = flattened;

  out.distinct = stmt.distinct;
  out.limit = stmt.limit;

  Scope scope(*catalog_, stmt.from);
  ISUM_RETURN_IF_ERROR(scope.Validate(stmt.from));
  out.tables = scope.tables();
  for (BoundTableRef& ref : out.tables) {
    auto it = semantics.find(ToLower(ref.effective_name));
    if (it != semantics.end()) ref.semantics = it->second;
  }

  // --- WHERE clause: classify conjuncts. ---
  std::vector<const Expression*> conjuncts;
  if (stmt.where != nullptr) FlattenConjuncts(*stmt.where, &conjuncts);

  for (const Expression* conjunct : conjuncts) {
    // 1. Equi-join between two tables?
    if (conjunct->kind() == ExpressionKind::kBinary) {
      const auto& bin = static_cast<const BinaryExpression&>(*conjunct);
      if (bin.op() == BinaryOp::kEq) {
        const ColumnRefExpression* l = AsColumnRef(bin.lhs());
        const ColumnRefExpression* r = AsColumnRef(bin.rhs());
        if (l != nullptr && r != nullptr) {
          ISUM_ASSIGN_OR_RETURN(catalog::ColumnId lid, scope.Resolve(*l));
          ISUM_ASSIGN_OR_RETURN(catalog::ColumnId rid, scope.Resolve(*r));
          if (lid.table != rid.table) {
            JoinPredicate jp;
            jp.left = lid;
            jp.right = rid;
            jp.selectivity =
                1.0 / std::max({1.0, stats_->DistinctCount(lid),
                                stats_->DistinctCount(rid)});
            out.joins.push_back(jp);
            continue;
          }
        }
      }
    }

    // 2. Sargable single-column predicate?
    bool handled = false;
    switch (conjunct->kind()) {
      case ExpressionKind::kBinary: {
        const auto& bin = static_cast<const BinaryExpression&>(*conjunct);
        if (!IsComparison(bin.op())) break;
        const ColumnRefExpression* lcol = AsColumnRef(bin.lhs());
        const ColumnRefExpression* rcol = AsColumnRef(bin.rhs());
        if ((lcol != nullptr) == (rcol != nullptr)) break;  // need exactly one
        const ColumnRefExpression* col = lcol != nullptr ? lcol : rcol;
        const Expression& other = lcol != nullptr ? bin.lhs() : bin.rhs();
        (void)other;
        auto value = ConstantFold(lcol != nullptr ? bin.rhs() : bin.lhs());
        if (!value.has_value()) break;
        ISUM_ASSIGN_OR_RETURN(catalog::ColumnId id, scope.Resolve(*col));
        FilterPredicate fp;
        fp.column = id;
        fp.values = {*value};
        // Normalize so the column is on the left.
        BinaryOp op = bin.op();
        if (rcol != nullptr) {
          switch (op) {
            case BinaryOp::kLt: op = BinaryOp::kGt; break;
            case BinaryOp::kLe: op = BinaryOp::kGe; break;
            case BinaryOp::kGt: op = BinaryOp::kLt; break;
            case BinaryOp::kGe: op = BinaryOp::kLe; break;
            default: break;
          }
        }
        switch (op) {
          case BinaryOp::kEq:
            fp.op = PredicateOp::kEq;
            fp.selectivity = stats_->SelectivityEquals(id, *value);
            break;
          case BinaryOp::kNotEq:
            fp.op = PredicateOp::kNotEq;
            fp.selectivity = 1.0 - stats_->SelectivityEquals(id, *value);
            fp.sargable = false;
            break;
          case BinaryOp::kLt:
          case BinaryOp::kLe:
            fp.op = op == BinaryOp::kLt ? PredicateOp::kLt : PredicateOp::kLe;
            fp.selectivity = stats_->SelectivityRange(id, std::nullopt, *value);
            break;
          case BinaryOp::kGt:
          case BinaryOp::kGe:
            fp.op = op == BinaryOp::kGt ? PredicateOp::kGt : PredicateOp::kGe;
            fp.selectivity = stats_->SelectivityRange(id, *value, std::nullopt);
            break;
          default:
            break;
        }
        fp.selectivity = std::clamp(fp.selectivity, kMinSelectivity, 1.0);
        out.filters.push_back(std::move(fp));
        handled = true;
        break;
      }
      case ExpressionKind::kIn: {
        const auto& in = static_cast<const InExpression&>(*conjunct);
        const ColumnRefExpression* col = AsColumnRef(in.operand());
        if (col == nullptr) break;
        ISUM_ASSIGN_OR_RETURN(catalog::ColumnId id, scope.Resolve(*col));
        FilterPredicate fp;
        fp.column = id;
        fp.op = PredicateOp::kIn;
        double sel = 0.0;
        for (const auto& v : in.values()) {
          auto value = ConstantFold(*v);
          if (value.has_value()) {
            fp.values.push_back(*value);
            sel += stats_->SelectivityEquals(id, *value);
          } else {
            sel += stats_->Density(id);
          }
        }
        fp.selectivity = std::clamp(sel, kMinSelectivity, 1.0);
        if (in.negated()) {
          fp.selectivity = std::clamp(1.0 - fp.selectivity, kMinSelectivity, 1.0);
          fp.sargable = false;
          fp.op = PredicateOp::kComplex;
        }
        out.filters.push_back(std::move(fp));
        handled = true;
        break;
      }
      case ExpressionKind::kBetween: {
        const auto& bt = static_cast<const BetweenExpression&>(*conjunct);
        const ColumnRefExpression* col = AsColumnRef(bt.operand());
        if (col == nullptr) break;
        auto lo = ConstantFold(bt.lo());
        auto hi = ConstantFold(bt.hi());
        if (!lo.has_value() || !hi.has_value()) break;
        ISUM_ASSIGN_OR_RETURN(catalog::ColumnId id, scope.Resolve(*col));
        FilterPredicate fp;
        fp.column = id;
        fp.op = PredicateOp::kBetween;
        fp.values = {*lo, *hi};
        fp.selectivity =
            std::clamp(stats_->SelectivityRange(id, *lo, *hi), kMinSelectivity, 1.0);
        if (bt.negated()) {
          fp.selectivity = std::clamp(1.0 - fp.selectivity, kMinSelectivity, 1.0);
          fp.sargable = false;
          fp.op = PredicateOp::kComplex;
        }
        out.filters.push_back(std::move(fp));
        handled = true;
        break;
      }
      case ExpressionKind::kLike: {
        const auto& lk = static_cast<const LikeExpression&>(*conjunct);
        const ColumnRefExpression* col = AsColumnRef(lk.operand());
        if (col == nullptr) break;
        ISUM_ASSIGN_OR_RETURN(catalog::ColumnId id, scope.Resolve(*col));
        FilterPredicate fp;
        fp.column = id;
        fp.op = PredicateOp::kLike;
        const bool prefix = LikePatternHasSargablePrefix(lk.pattern());
        fp.selectivity = prefix ? kLikePrefixSelectivity : kLikeContainsSelectivity;
        fp.sargable = prefix && !lk.negated();
        if (lk.negated()) fp.selectivity = 1.0 - fp.selectivity;
        out.filters.push_back(std::move(fp));
        handled = true;
        break;
      }
      case ExpressionKind::kIsNull: {
        const auto& isn = static_cast<const IsNullExpression&>(*conjunct);
        const ColumnRefExpression* col = AsColumnRef(isn.operand());
        if (col == nullptr) break;
        ISUM_ASSIGN_OR_RETURN(catalog::ColumnId id, scope.Resolve(*col));
        FilterPredicate fp;
        fp.column = id;
        fp.op = PredicateOp::kIsNull;
        const double nf = std::max(stats_->GetStats(id).null_fraction, 0.001);
        fp.selectivity = isn.negated() ? 1.0 - nf : nf;
        fp.sargable = !isn.negated();
        out.filters.push_back(std::move(fp));
        handled = true;
        break;
      }
      default:
        break;
    }
    if (handled) continue;

    // 3. Residual predicate.
    std::vector<catalog::ColumnId> cols;
    ISUM_RETURN_IF_ERROR(CollectColumns(*conjunct, scope, &cols));
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    const double sel = std::clamp(
        EstimateBooleanSelectivity(*conjunct, scope, *stats_), kMinSelectivity, 1.0);
    if (cols.size() == 1) {
      FilterPredicate fp;
      fp.column = cols[0];
      fp.op = PredicateOp::kComplex;
      fp.selectivity = sel;
      fp.sargable = false;
      fp.expr = std::shared_ptr<const Expression>(conjunct->Clone());
      out.filters.push_back(std::move(fp));
    } else {
      ComplexPredicate cp;
      cp.columns = std::move(cols);
      cp.selectivity = sel;
      cp.expr = std::shared_ptr<const Expression>(conjunct->Clone());
      out.complex_predicates.push_back(std::move(cp));
    }
  }

  // --- Select list: outputs, aggregates, aliases. ---
  std::unordered_map<std::string, const Expression*> select_aliases;
  for (const SelectItem& item : stmt.select_list) {
    if (!item.alias.empty()) {
      select_aliases[ToLower(item.alias)] = item.expr.get();
    }
    if (item.expr->kind() == ExpressionKind::kStar) {
      out.select_star = true;
      continue;
    }
    if (item.expr->kind() == ExpressionKind::kFunctionCall) {
      const auto& fn = static_cast<const FunctionCallExpression&>(*item.expr);
      AggregateRef agg;
      if (fn.name() == "COUNT") agg.kind = AggregateKind::kCount;
      else if (fn.name() == "SUM") agg.kind = AggregateKind::kSum;
      else if (fn.name() == "AVG") agg.kind = AggregateKind::kAvg;
      else if (fn.name() == "MIN") agg.kind = AggregateKind::kMin;
      else if (fn.name() == "MAX") agg.kind = AggregateKind::kMax;
      agg.distinct = fn.distinct();
      if (fn.args().size() == 1) {
        const ColumnRefExpression* col = AsColumnRef(*fn.args()[0]);
        if (col != nullptr) {
          ISUM_ASSIGN_OR_RETURN(agg.argument, scope.Resolve(*col));
        }
      }
      out.aggregates.push_back(agg);
      // Argument columns still count as outputs (covering analysis).
      ISUM_RETURN_IF_ERROR(
          CollectColumns(*item.expr, scope, &out.output_columns));
      continue;
    }
    ISUM_RETURN_IF_ERROR(CollectColumns(*item.expr, scope, &out.output_columns));
  }

  // --- HAVING: cardinality effect only (post-aggregation, not indexable).
  if (stmt.having != nullptr) {
    out.having_selectivity = std::clamp(
        EstimateBooleanSelectivity(*stmt.having, scope, *stats_), 0.01, 1.0);
  }

  // --- GROUP BY. ---
  for (const auto& g : stmt.group_by) {
    const ColumnRefExpression* col = AsColumnRef(*g);
    if (col != nullptr) {
      ISUM_ASSIGN_OR_RETURN(catalog::ColumnId id, scope.Resolve(*col));
      out.group_by_columns.push_back(id);
    } else {
      ISUM_RETURN_IF_ERROR(CollectColumns(*g, scope, &out.group_by_columns));
    }
  }

  // --- ORDER BY (select-alias references resolve through the alias map;
  // aliases of aggregate expressions are not indexable and are skipped). ---
  for (const auto& o : stmt.order_by) {
    const ColumnRefExpression* col = AsColumnRef(*o.expr);
    if (col == nullptr) continue;
    if (col->table().empty()) {
      auto it = select_aliases.find(ToLower(col->column()));
      if (it != select_aliases.end()) {
        const ColumnRefExpression* aliased = AsColumnRef(*it->second);
        if (aliased != nullptr) {
          ISUM_ASSIGN_OR_RETURN(catalog::ColumnId id, scope.Resolve(*aliased));
          out.order_by_columns.emplace_back(id, o.descending);
        }
        continue;
      }
    }
    auto resolved = scope.Resolve(*col);
    if (resolved.ok()) {
      out.order_by_columns.emplace_back(resolved.value(), o.descending);
    }
  }

  // Dedup output columns.
  std::sort(out.output_columns.begin(), out.output_columns.end());
  out.output_columns.erase(
      std::unique(out.output_columns.begin(), out.output_columns.end()),
      out.output_columns.end());

  return out;
}

bool BoundQuery::ReferencesTable(catalog::TableId t) const {
  for (const BoundTableRef& ref : tables) {
    if (ref.table == t) return true;
  }
  return false;
}

double BoundQuery::TableFilterSelectivity(catalog::TableId t) const {
  double sel = 1.0;
  for (const FilterPredicate& f : filters) {
    if (f.column.table == t) sel *= f.selectivity;
  }
  return std::clamp(sel, 1e-12, 1.0);
}

std::vector<catalog::ColumnId> BoundQuery::ReferencedColumns() const {
  size_t n = filters.size() + 2 * joins.size() + group_by_columns.size() +
             order_by_columns.size() + output_columns.size();
  for (const auto& c : complex_predicates) n += c.columns.size();
  std::vector<catalog::ColumnId> all;
  all.reserve(n);
  for (const auto& f : filters) all.push_back(f.column);
  for (const auto& j : joins) {
    all.push_back(j.left);
    all.push_back(j.right);
  }
  for (const auto& c : complex_predicates) {
    all.insert(all.end(), c.columns.begin(), c.columns.end());
  }
  all.insert(all.end(), group_by_columns.begin(), group_by_columns.end());
  for (const auto& [col, desc] : order_by_columns) all.push_back(col);
  all.insert(all.end(), output_columns.begin(), output_columns.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace isum::sql
