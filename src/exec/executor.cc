#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash.h"
#include "exec/expr_eval.h"
#include "obs/trace.h"

namespace isum::exec {

void Database::MaterializeAll(uint64_t max_rows_per_table, uint64_t seed) {
  ISUM_TRACE_SPAN("exec/materialize");
  tables_.clear();
  indexes_.clear();
  Rng rng(seed);
  for (size_t t = 0; t < catalog_->num_tables(); ++t) {
    const catalog::TableId id = static_cast<catalog::TableId>(t);
    Rng table_rng = rng.Fork(static_cast<uint64_t>(t));
    tables_.emplace(id, TableData::Materialize(*catalog_, *stats_, id,
                                               table_rng, max_rows_per_table));
  }
}

const IndexData& Database::GetIndex(const engine::Index& index) {
  auto it = indexes_.find(index);
  if (it != indexes_.end()) return it->second;
  ISUM_TRACE_SPAN("exec/build-index");
  auto [ins, inserted] =
      indexes_.emplace(index, IndexData::Build(index, table(index.table())));
  return ins->second;
}

namespace {

/// Deterministic Bernoulli keep decision for non-evaluable predicates.
bool BernoulliKeep(uint64_t row_key, uint64_t salt, double probability) {
  const uint64_t h = HashCombine(salt ^ 0x9E3779B97F4A7C15ull, row_key);
  return (static_cast<double>(h >> 11) * 0x1.0p-53) < probability;
}

/// True if the predicate can be evaluated against encoded values.
bool IsEvaluable(const sql::FilterPredicate& f) {
  switch (f.op) {
    case sql::PredicateOp::kEq:
    case sql::PredicateOp::kNotEq:
    case sql::PredicateOp::kLt:
    case sql::PredicateOp::kLe:
    case sql::PredicateOp::kGt:
    case sql::PredicateOp::kGe:
    case sql::PredicateOp::kIn:
    case sql::PredicateOp::kBetween:
      return !f.values.empty();
    default:
      return false;
  }
}

bool EvaluateFilter(const sql::FilterPredicate& f, double v, uint64_t row_key) {
  switch (f.op) {
    case sql::PredicateOp::kEq:
      return v == f.values[0];
    case sql::PredicateOp::kNotEq:
      return v != f.values[0];
    case sql::PredicateOp::kLt:
      return v < f.values[0];
    case sql::PredicateOp::kLe:
      return v <= f.values[0];
    case sql::PredicateOp::kGt:
      return v > f.values[0];
    case sql::PredicateOp::kGe:
      return v >= f.values[0];
    case sql::PredicateOp::kIn:
      return std::find(f.values.begin(), f.values.end(), v) != f.values.end();
    case sql::PredicateOp::kBetween:
      return v >= f.values[0] && v <= f.values[1];
    default:
      // LIKE / IS NULL / complex: Bernoulli at estimated selectivity.
      return BernoulliKeep(row_key,
                           static_cast<uint64_t>(f.column.column) * 7919u +
                               static_cast<uint64_t>(f.column.table),
                           f.selectivity);
  }
}

}  // namespace

ExecutionResult Executor::Execute(const sql::BoundQuery& query,
                                  const engine::PlanSummary& plan) {
  ISUM_TRACE_SPAN("exec/execute");
  ExecutionResult result;
  if (plan.tables.empty()) return result;

  // Position of each table in the tuple layout (plan order).
  std::unordered_map<catalog::TableId, size_t> slot;
  for (const engine::PlannedTable& pt : plan.tables) {
    slot.emplace(pt.table, slot.size());
  }

  // Per-table filters.
  auto filters_of = [&](catalog::TableId t) {
    std::vector<const sql::FilterPredicate*> out;
    for (const auto& f : query.filters) {
      if (f.column.table == t) out.push_back(&f);
    }
    return out;
  };

  // Value of a column for a (composed) tuple.
  using Tuple = std::vector<uint32_t>;
  auto tuple_value = [&](const Tuple& tuple, catalog::ColumnId c) {
    return database_->table(c.table).Value(c.column, tuple[slot.at(c.table)]);
  };
  auto tuple_key = [](const Tuple& tuple) {
    uint64_t h = 0x1234567ull;
    for (uint32_t r : tuple) h = HashCombine(h, r);
    return h;
  };

  // Exact evaluation of retained complex predicates (fallback: Bernoulli at
  // estimated selectivity inside EvaluateFilter).
  const AliasMap aliases = BuildAliasMap(query);
  const ExpressionEvaluator evaluator(&database_->catalog(), &aliases);
  auto eval_single_table = [&](const sql::FilterPredicate& f,
                               const TableData& data, uint32_t row,
                               bool* out_keep) {
    if (f.expr == nullptr) return false;
    auto verdict = evaluator.Boolean(
        *f.expr, [&](catalog::ColumnId c) -> std::optional<double> {
          if (c.table != data.table()) return std::nullopt;
          return data.Value(c.column, row);
        });
    if (!verdict.has_value()) return false;
    *out_keep = *verdict;
    return true;
  };

  // --- Access one base table per its planned access path. ---
  auto access_rows = [&](const engine::PlannedTable& pt) {
    ISUM_TRACE_SPAN("exec/scan");
    const TableData& data = database_->table(pt.table);
    const auto filters = filters_of(pt.table);
    std::vector<uint32_t> out;

    std::vector<uint32_t> candidates;
    bool seeked = false;
    if (pt.access.index != nullptr && !pt.access.index->key_columns().empty()) {
      // Try to seek on the leading key column.
      const catalog::ColumnId lead = pt.access.index->key_columns()[0];
      const sql::FilterPredicate* lead_filter = nullptr;
      for (const auto* f : filters) {
        if (f->column == lead && f->sargable && IsEvaluable(*f)) {
          lead_filter = f;
          break;
        }
      }
      if (lead_filter != nullptr) {
        const IndexData& index = database_->GetIndex(*pt.access.index);
        uint64_t touched = 0;
        switch (lead_filter->op) {
          case sql::PredicateOp::kEq:
            candidates = index.LookupEquals(lead_filter->values[0], &touched);
            seeked = true;
            break;
          case sql::PredicateOp::kIn: {
            for (double v : lead_filter->values) {
              auto part = index.LookupEquals(v, &touched);
              candidates.insert(candidates.end(), part.begin(), part.end());
            }
            // Duplicate IN values (legal SQL) must not duplicate rows.
            std::sort(candidates.begin(), candidates.end());
            candidates.erase(std::unique(candidates.begin(), candidates.end()),
                             candidates.end());
            seeked = true;
            break;
          }
          case sql::PredicateOp::kBetween:
            candidates = index.LookupRange(lead_filter->values[0],
                                           lead_filter->values[1], &touched);
            seeked = true;
            break;
          case sql::PredicateOp::kLt:
          case sql::PredicateOp::kLe:
            candidates = index.LookupRange(
                -std::numeric_limits<double>::infinity(),
                lead_filter->values[0], &touched);
            seeked = true;
            break;
          case sql::PredicateOp::kGt:
          case sql::PredicateOp::kGe:
            candidates = index.LookupRange(
                lead_filter->values[0],
                std::numeric_limits<double>::infinity(), &touched);
            seeked = true;
            break;
          default:
            break;
        }
        result.row_ops += touched;
      }
    }
    if (!seeked) {
      candidates.resize(data.num_rows());
      for (uint32_t i = 0; i < data.num_rows(); ++i) candidates[i] = i;
      result.row_ops += data.num_rows();
    }
    // Residual filters (retained expressions evaluated exactly).
    for (uint32_t row : candidates) {
      bool keep = true;
      for (const auto* f : filters) {
        bool exact = false;
        if (eval_single_table(*f, data, row, &exact)) {
          keep = exact;
        } else {
          keep = EvaluateFilter(*f, data.Value(f->column.column, row), row);
        }
        if (!keep) break;
      }
      if (keep) out.push_back(row);
    }
    return out;
  };

  // --- Driver. ---
  std::vector<Tuple> tuples;
  for (uint32_t row : access_rows(plan.tables[0])) {
    tuples.push_back(Tuple{row});
  }

  // Join semantics per table (semi/anti from flattened subqueries).
  std::unordered_map<catalog::TableId, sql::JoinSemantics> semantics;
  for (const auto& ref : query.tables) {
    semantics.emplace(ref.table, ref.semantics);
  }

  // --- Joins, in plan order. ---
  for (size_t step = 1; step < plan.tables.size(); ++step) {
    ISUM_TRACE_SPAN("exec/join");
    const engine::PlannedTable& pt = plan.tables[step];
    const TableData& data = database_->table(pt.table);
    const sql::JoinSemantics sem = semantics.contains(pt.table)
                                       ? semantics.at(pt.table)
                                       : sql::JoinSemantics::kInner;

    // Join predicates linking pt.table to already-placed tables.
    struct Link {
      catalog::ColumnId inner;  // on pt.table
      catalog::ColumnId outer;  // on a placed table
    };
    std::vector<Link> links;
    for (const auto& jp : query.joins) {
      const bool left_inner = jp.left.table == pt.table;
      const bool right_inner = jp.right.table == pt.table;
      if (left_inner == right_inner) continue;  // neither or both
      const catalog::ColumnId inner = left_inner ? jp.left : jp.right;
      const catalog::ColumnId outer = left_inner ? jp.right : jp.left;
      if (slot.at(outer.table) < step) links.push_back({inner, outer});
    }

    std::vector<Tuple> next;
    auto emit = [&](const Tuple& base, uint32_t inner_row) {
      Tuple t = base;
      t.push_back(inner_row);
      next.push_back(std::move(t));
      ++result.row_ops;
    };

    if (pt.join_method == engine::JoinMethod::kIndexNestedLoop &&
        pt.inl_index != nullptr && !links.empty()) {
      // Probe the index once per outer tuple on the leading-key link.
      const catalog::ColumnId lead = pt.inl_index->key_columns()[0];
      const Link* lead_link = nullptr;
      for (const Link& link : links) {
        if (link.inner == lead) {
          lead_link = &link;
          break;
        }
      }
      const IndexData& index = database_->GetIndex(*pt.inl_index);
      const auto filters = filters_of(pt.table);
      for (const Tuple& tuple : tuples) {
        if (next.size() > tuple_cap_) {
          result.truncated = true;
          break;
        }
        uint64_t touched = 0;
        const double key = tuple_value(tuple, lead_link != nullptr
                                                  ? lead_link->outer
                                                  : links[0].outer);
        const std::vector<uint32_t> matches = index.LookupEquals(key, &touched);
        result.row_ops += touched;
        bool matched = false;
        for (uint32_t row : matches) {
          bool keep = true;
          for (const auto* f : filters) {
            if (!EvaluateFilter(*f, data.Value(f->column.column, row), row)) {
              keep = false;
              break;
            }
          }
          // Residual join predicates beyond the probed one.
          for (const Link& link : links) {
            if (!keep) break;
            if (lead_link != nullptr && link.inner == lead_link->inner &&
                link.outer == lead_link->outer) {
              continue;
            }
            keep = data.Value(link.inner.column, row) ==
                   tuple_value(tuple, link.outer);
          }
          if (keep) {
            matched = true;
            if (sem != sql::JoinSemantics::kAnti) emit(tuple, row);
            if (sem != sql::JoinSemantics::kInner) break;  // one match enough
          }
        }
        if (sem == sql::JoinSemantics::kAnti && !matched &&
            data.num_rows() > 0) {
          emit(tuple, 0);  // anti: keep outer tuples with no match
        }
      }
    } else if (!links.empty()) {
      // Hash join: build on the (filtered) inner side, probe with tuples.
      const std::vector<uint32_t> inner_rows = access_rows(pt);
      std::unordered_multimap<double, uint32_t> hash;
      hash.reserve(inner_rows.size());
      const catalog::ColumnId build_key = links[0].inner;
      for (uint32_t row : inner_rows) {
        hash.emplace(data.Value(build_key.column, row), row);
        ++result.row_ops;
      }
      for (const Tuple& tuple : tuples) {
        if (next.size() > tuple_cap_) {
          result.truncated = true;
          break;
        }
        ++result.row_ops;  // probe
        const double key = tuple_value(tuple, links[0].outer);
        auto [begin, end] = hash.equal_range(key);
        bool matched = false;
        for (auto it = begin; it != end; ++it) {
          bool keep = true;
          for (size_t l = 1; l < links.size(); ++l) {
            if (data.Value(links[l].inner.column, it->second) !=
                tuple_value(tuple, links[l].outer)) {
              keep = false;
              break;
            }
          }
          if (keep) {
            matched = true;
            if (sem != sql::JoinSemantics::kAnti) emit(tuple, it->second);
            if (sem != sql::JoinSemantics::kInner) break;
          }
        }
        if (sem == sql::JoinSemantics::kAnti && !matched &&
            data.num_rows() > 0) {
          emit(tuple, 0);
        }
      }
    } else {
      // Cross join (semi: any inner row qualifies; anti: none may exist).
      const std::vector<uint32_t> inner_rows = access_rows(pt);
      for (const Tuple& tuple : tuples) {
        if (next.size() > tuple_cap_) {
          result.truncated = true;
          break;
        }
        if (sem == sql::JoinSemantics::kSemi) {
          if (!inner_rows.empty()) emit(tuple, inner_rows.front());
        } else if (sem == sql::JoinSemantics::kAnti) {
          if (inner_rows.empty() && data.num_rows() > 0) emit(tuple, 0);
        } else {
          for (uint32_t row : inner_rows) emit(tuple, row);
        }
      }
    }
    tuples = std::move(next);
  }

  // --- Residual multi-table predicates: evaluate retained expressions
  // exactly; fall back to Bernoulli at estimated selectivity. ---
  for (size_t cp = 0; cp < query.complex_predicates.size(); ++cp) {
    const auto& predicate = query.complex_predicates[cp];
    std::vector<Tuple> kept;
    kept.reserve(tuples.size());
    for (Tuple& tuple : tuples) {
      ++result.row_ops;
      bool keep;
      std::optional<bool> exact;
      if (predicate.expr != nullptr) {
        exact = evaluator.Boolean(
            *predicate.expr, [&](catalog::ColumnId c) -> std::optional<double> {
              auto it = slot.find(c.table);
              if (it == slot.end()) return std::nullopt;
              return database_->table(c.table).Value(c.column,
                                                     tuple[it->second]);
            });
      }
      if (exact.has_value()) {
        keep = *exact;
      } else {
        keep = BernoulliKeep(tuple_key(tuple), 0xC0FFEEull + cp,
                             predicate.selectivity);
      }
      if (keep) kept.push_back(std::move(tuple));
    }
    tuples = std::move(kept);
  }

  double out_rows = static_cast<double>(tuples.size());

  // --- Aggregation / DISTINCT. ---
  const bool has_agg =
      !query.aggregates.empty() || !query.group_by_columns.empty();
  const std::vector<catalog::ColumnId>& group_cols =
      has_agg ? query.group_by_columns
              : (query.distinct ? query.output_columns
                                : std::vector<catalog::ColumnId>{});
  if (has_agg || query.distinct) {
    ISUM_TRACE_SPAN("exec/aggregate");
    std::unordered_map<uint64_t, uint64_t> groups;
    for (const Tuple& tuple : tuples) {
      ++result.row_ops;
      uint64_t h = 0xABCDEFull;
      for (catalog::ColumnId c : group_cols) {
        // Group keys only come from placed tables.
        if (!slot.contains(c.table)) continue;
        const double v = tuple_value(tuple, c);
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        h = HashCombine(h, bits);
      }
      ++groups[h];
    }
    out_rows = group_cols.empty() ? 1.0 : static_cast<double>(groups.size());
  }

  // --- Sort. ---
  if (plan.sort_needed && out_rows > 1.0) {
    result.row_ops += static_cast<uint64_t>(
        out_rows * std::ceil(std::log2(std::max(2.0, out_rows))));
  }

  if (query.limit.has_value()) {
    out_rows = std::min(out_rows, static_cast<double>(
                                      std::max<int64_t>(1, *query.limit)));
  }
  result.output_rows = out_rows;
  return result;
}

}  // namespace isum::exec
