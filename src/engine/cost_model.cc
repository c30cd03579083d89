#include "engine/cost_model.h"

#include <algorithm>
#include <cmath>

namespace isum::engine {

namespace {

double Log2Clamped(double x) { return std::log2(std::max(2.0, x)); }

}  // namespace

double CostModel::FullScanCost(catalog::TableId table) const {
  const catalog::Table& t = catalog_->table(table);
  return static_cast<double>(t.data_pages()) * params_.seq_page_cost +
         static_cast<double>(t.row_count()) * params_.cpu_tuple_cost;
}

double CostModel::SeekCost(const Index& index, double seek_selectivity,
                           double fetched_rows, bool covering) const {
  const double descend = index.HeightLevels(*catalog_) * params_.random_page_cost;
  const double leaf_pages = static_cast<double>(index.LeafPages(*catalog_));
  const double leaf_io =
      std::max(1.0, leaf_pages * seek_selectivity) * params_.seq_page_cost;
  double lookup_io = 0.0;
  if (!covering) {
    // One random base-table access per fetched row, capped at ~2x a full
    // sweep of the heap (beyond that a scan would have been chosen anyway).
    const double heap_pages =
        static_cast<double>(catalog_->table(index.table()).data_pages());
    lookup_io = std::min(fetched_rows, heap_pages * 2.0) * params_.random_page_cost;
  }
  const double cpu = fetched_rows * params_.cpu_tuple_cost;
  return descend + leaf_io + lookup_io + cpu;
}

AccessPath CostModel::BestAccessPath(
    catalog::TableId table, const std::vector<sql::FilterPredicate>& filters,
    const std::vector<catalog::ColumnId>& required_columns,
    const std::vector<catalog::ColumnId>& desired_order,
    const std::vector<const Index*>& indexes) const {
  const catalog::Table& t = catalog_->table(table);
  const double rows = static_cast<double>(t.row_count());

  double total_sel = 1.0;
  for (const auto& f : filters) total_sel *= f.selectivity;
  total_sel = std::clamp(total_sel, 1e-12, 1.0);
  const double out_rows = std::max(1.0, rows * total_sel);

  // Baseline: full scan with residual filter CPU.
  AccessPath best;
  best.index = nullptr;
  best.cost = FullScanCost(table) +
              static_cast<double>(filters.size()) * rows * params_.cpu_operator_cost;
  best.out_rows = out_rows;
  best.fetched_rows = rows;
  best.covering = true;  // a heap scan sees every column
  best.provides_order = false;
  best.seek_selectivity = 1.0;

  // Per-thread scratch, for the reason Optimizer::Optimize keeps its slots.
  thread_local std::vector<bool> filter_used;
  for (const Index* index : indexes) {
    // --- Determine the seek prefix this index supports. ---
    double seek_sel = 1.0;
    size_t matched = 0;
    bool range_used = false;
    filter_used.assign(filters.size(), false);
    for (catalog::ColumnId key : index->key_columns()) {
      if (range_used) break;
      bool advanced = false;
      for (size_t i = 0; i < filters.size(); ++i) {
        const auto& f = filters[i];
        if (filter_used[i] || f.column != key || !f.sargable) continue;
        if (IsEqualityOp(f.op)) {
          seek_sel *= f.selectivity;
          filter_used[i] = true;
          ++matched;
          advanced = true;
          break;
        }
        if (IsRangeOp(f.op)) {
          seek_sel *= f.selectivity;
          filter_used[i] = true;
          ++matched;
          range_used = true;
          advanced = true;
          break;
        }
      }
      if (!advanced) break;
    }

    // --- Covering check. ---
    bool covering = true;
    for (catalog::ColumnId c : required_columns) {
      if (c.table == table && !index->ContainsColumn(c)) {
        covering = false;
        break;
      }
    }

    // --- Order check: after equality-matched leading keys, the remaining
    // key sequence must start with `desired_order`. ---
    bool provides_order = false;
    if (!desired_order.empty()) {
      const size_t skip = range_used && matched > 0 ? matched - 1 : matched;
      if (index->key_columns().size() >= skip + desired_order.size()) {
        provides_order = true;
        for (size_t i = 0; i < desired_order.size(); ++i) {
          if (index->key_columns()[skip + i] != desired_order[i]) {
            provides_order = false;
            break;
          }
        }
      }
      // A range column consumes the order position it sorts by, so order on
      // the range column itself is preserved; handled by skip above.
    }

    AccessPath path;
    path.index = index;
    path.seek_selectivity = matched > 0 ? seek_sel : 1.0;
    path.fetched_rows = std::max(1.0, rows * path.seek_selectivity);
    path.covering = covering;
    path.provides_order = provides_order;
    path.out_rows = out_rows;

    if (matched == 0) {
      // No seek possible: index-only scan is useful when covering (narrower
      // than the heap) or when it provides the desired order. Skipping the
      // rest here is what Optimizer::CanUse relies on.
      if (!covering && !provides_order) continue;
      const double leaf_pages = static_cast<double>(index->LeafPages(*catalog_));
      double io = covering
                      ? leaf_pages * params_.seq_page_cost
                      : leaf_pages * params_.seq_page_cost +
                            std::min(rows, static_cast<double>(t.data_pages()) * 2.0) *
                                params_.random_page_cost;
      path.cost = io + rows * params_.cpu_tuple_cost +
                  static_cast<double>(filters.size()) * rows * params_.cpu_operator_cost;
    } else {
      path.cost = SeekCost(*index, path.seek_selectivity, path.fetched_rows,
                           covering);
      // Residual predicates evaluated on fetched rows.
      size_t residual = 0;
      for (size_t i = 0; i < filters.size(); ++i) {
        if (!filter_used[i]) ++residual;
      }
      path.cost += static_cast<double>(residual) * path.fetched_rows *
                   params_.cpu_operator_cost;
    }

    // Prefer strictly cheaper paths; break ties toward order providers.
    if (path.cost < best.cost ||
        (path.cost == best.cost && path.provides_order && !best.provides_order)) {
      best = path;
    }
  }
  return best;
}

double CostModel::SortCost(double rows, std::optional<int64_t> limit) const {
  if (rows <= 1.0) return 0.0;
  double effective = rows;
  if (limit.has_value() && *limit > 0) {
    // Top-N heap sort: log of the heap size, not the input.
    effective = std::min(rows, static_cast<double>(*limit) * 2.0);
  }
  return rows * Log2Clamped(effective) * params_.sort_factor;
}

double CostModel::HashJoinCost(double build_rows, double probe_rows) const {
  return build_rows * params_.hash_build_per_row +
         probe_rows * params_.hash_probe_per_row;
}

double CostModel::HashAggCost(double rows, double groups) const {
  return rows * params_.cpu_tuple_cost * 1.5 + groups * params_.cpu_operator_cost;
}

double CostModel::StreamAggCost(double rows) const {
  return rows * params_.stream_agg_per_row;
}

double CostModel::IndexNestedLoopCost(const Index& index, double outer_rows,
                                      double rows_per_probe,
                                      bool covering) const {
  const double descend_cpu =
      index.HeightLevels(*catalog_) * params_.cpu_operator_cost * 8.0;
  // Fraction of probes that incur a page miss shrinks as the index gets
  // cache-resident across repeated probes; model a flat 25% miss rate.
  const double per_probe_io = params_.random_page_cost * 0.25;
  const double fetch = covering
                           ? rows_per_probe * params_.cpu_tuple_cost
                           : rows_per_probe * (params_.random_page_cost * 0.5 +
                                               params_.cpu_tuple_cost);
  return outer_rows * (descend_cpu + per_probe_io + fetch);
}

}  // namespace isum::engine
