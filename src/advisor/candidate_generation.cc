#include "advisor/candidate_generation.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace isum::advisor {

namespace {

void PushUnique(std::vector<catalog::ColumnId>* v, catalog::ColumnId c) {
  if (std::find(v->begin(), v->end(), c) == v->end()) v->push_back(c);
}

/// Per-table slices of the indexable columns.
struct TableColumns {
  std::vector<catalog::ColumnId> selections;  // most selective first
  std::vector<catalog::ColumnId> joins;
  std::vector<catalog::ColumnId> group_by;  // in clause order
  std::vector<catalog::ColumnId> order_by;  // in clause order
  std::vector<catalog::ColumnId> referenced;
};

}  // namespace

IndexableColumns ExtractIndexableColumns(const sql::BoundQuery& query) {
  IndexableColumns out;
  for (const auto& f : query.filters) PushUnique(&out.filter_columns, f.column);
  for (const auto& cp : query.complex_predicates) {
    for (catalog::ColumnId c : cp.columns) PushUnique(&out.filter_columns, c);
  }
  for (const auto& j : query.joins) {
    PushUnique(&out.join_columns, j.left);
    PushUnique(&out.join_columns, j.right);
  }
  for (catalog::ColumnId g : query.group_by_columns) {
    PushUnique(&out.group_by_columns, g);
  }
  for (const auto& [col, desc] : query.order_by_columns) {
    PushUnique(&out.order_by_columns, col);
  }
  return out;
}

std::vector<const sql::FilterPredicate*> SargableFiltersBySelectivity(
    const sql::BoundQuery& query) {
  std::vector<const sql::FilterPredicate*> sargable;
  for (const auto& f : query.filters) {
    if (f.sargable) sargable.push_back(&f);
  }
  std::sort(sargable.begin(), sargable.end(),
            [](const sql::FilterPredicate* a, const sql::FilterPredicate* b) {
              return a->selectivity < b->selectivity;
            });
  return sargable;
}

std::vector<engine::Index> GenerateCandidates(
    const sql::BoundQuery& query, const stats::StatsManager& stats,
    const CandidateGenOptions& options, const TimeBudget& budget) {
  // --- Build per-table views. ---
  std::unordered_map<catalog::TableId, TableColumns> per_table;

  // Sargable filters, most selective first.
  for (const auto* f : SargableFiltersBySelectivity(query)) {
    PushUnique(&per_table[f->column.table].selections, f->column);
  }
  for (const auto& j : query.joins) {
    PushUnique(&per_table[j.left.table].joins, j.left);
    PushUnique(&per_table[j.right.table].joins, j.right);
  }
  for (catalog::ColumnId g : query.group_by_columns) {
    PushUnique(&per_table[g.table].group_by, g);
  }
  for (const auto& [col, desc] : query.order_by_columns) {
    PushUnique(&per_table[col.table].order_by, col);
  }
  for (catalog::ColumnId c : query.ReferencedColumns()) {
    PushUnique(&per_table[c.table].referenced, c);
  }
  (void)stats;

  // --- Emit candidates per Table 1. ---
  std::vector<engine::Index> out;
  std::unordered_set<engine::Index> seen;
  auto emit = [&](catalog::TableId t, std::vector<catalog::ColumnId> keys,
                  std::vector<catalog::ColumnId> includes = {}) {
    if (keys.empty()) return;
    // Dedup keys while preserving order; cap length.
    std::vector<catalog::ColumnId> uniq;
    for (catalog::ColumnId c : keys) {
      if (std::find(uniq.begin(), uniq.end(), c) == uniq.end()) {
        uniq.push_back(c);
      }
      if (static_cast<int>(uniq.size()) >= options.max_key_columns) break;
    }
    engine::Index index(t, std::move(uniq), std::move(includes));
    if (seen.insert(index).second) out.push_back(std::move(index));
  };

  for (auto& [t, cols] : per_table) {
    // Anytime: an expired budget stops emitting further tables; everything
    // emitted so far is a valid (if smaller) candidate set.
    if (budget.Expired()) return out;
    const auto& S = cols.selections;
    const auto& J = cols.joins;
    const auto& G = cols.group_by;
    const auto& O = cols.order_by;

    // R1: selection — singletons plus the selective prefix.
    for (catalog::ColumnId s : S) emit(t, {s});
    if (S.size() > 1) emit(t, S);
    // R2: join.
    for (catalog::ColumnId j : J) emit(t, {j});
    // R3: selection + join; R4: join + selection.
    if (!S.empty() && !J.empty()) {
      std::vector<catalog::ColumnId> sj = S;
      sj.insert(sj.end(), J.begin(), J.end());
      emit(t, sj);
      std::vector<catalog::ColumnId> js = J;
      js.insert(js.end(), S.begin(), S.end());
      emit(t, js);
    }
    // R5–R8: order-by/group-by leading (leading requirement per the paper).
    auto lead_combo = [&](const std::vector<catalog::ColumnId>& lead,
                          const std::vector<catalog::ColumnId>& a,
                          const std::vector<catalog::ColumnId>& b) {
      if (lead.empty()) return;
      std::vector<catalog::ColumnId> keys = lead;
      keys.insert(keys.end(), a.begin(), a.end());
      keys.insert(keys.end(), b.begin(), b.end());
      emit(t, keys);
    };
    lead_combo(O, S, J);  // R5
    lead_combo(G, S, J);  // R6
    lead_combo(O, J, S);  // R7
    lead_combo(G, J, S);  // R8
    if (!O.empty()) emit(t, O);
    if (!G.empty()) emit(t, G);
  }

  // --- Covering variants: add INCLUDEs for the rest of the table's
  // referenced columns to the most promising seek candidates. ---
  if (options.covering_variants) {
    const size_t base_count = out.size();
    for (size_t i = 0; i < base_count; ++i) {
      if (budget.Expired()) break;
      const engine::Index& base = out[i];
      const TableColumns& cols = per_table[base.table()];
      std::vector<catalog::ColumnId> includes;
      for (catalog::ColumnId c : cols.referenced) {
        if (!base.ContainsColumn(c)) includes.push_back(c);
        if (static_cast<int>(includes.size()) >= options.max_include_columns) {
          break;
        }
      }
      if (includes.empty()) continue;
      engine::Index covering(base.table(), base.key_columns(), includes);
      if (seen.insert(covering).second) out.push_back(std::move(covering));
    }
  }
  return out;
}

}  // namespace isum::advisor
