#include "engine/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace isum::engine {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Default match probability for anti joins (no-match fraction).
constexpr double kAntiJoinSelectivity = 0.33;

double EstimateGroups(const stats::StatsManager& stats,
                      const std::vector<catalog::ColumnId>& group_columns,
                      double input_rows) {
  if (group_columns.empty()) return 1.0;
  double groups = 1.0;
  for (catalog::ColumnId c : group_columns) {
    groups *= std::max(1.0, stats.DistinctCount(c));
    if (groups > input_rows) break;
  }
  return std::clamp(groups, 1.0, std::max(1.0, input_rows));
}

}  // namespace

const char* JoinMethodToString(JoinMethod method) {
  switch (method) {
    case JoinMethod::kNone:
      return "driver";
    case JoinMethod::kHashJoin:
      return "hash join";
    case JoinMethod::kIndexNestedLoop:
      return "index nested loop";
    case JoinMethod::kCrossJoin:
      return "cross join";
  }
  return "?";
}

PreparedQuery Optimizer::Prepare(const sql::BoundQuery& query) {
  PreparedQuery prepared;
  prepared.query_ = &query;
  std::vector<PreparedQuery::Table>& tables = prepared.tables_;
  // Slot of `table`, or tables.size() when the query does not reference it.
  auto slot_of = [&tables](catalog::TableId table) {
    size_t i = 0;
    while (i < tables.size() && tables[i].table != table) ++i;
    return i;
  };

  for (const auto& ref : query.tables) {
    if (slot_of(ref.table) < tables.size()) continue;  // self-join: fold
    PreparedQuery::Table t;
    t.table = ref.table;
    t.semantics = ref.semantics;
    tables.push_back(std::move(t));
  }
  for (const auto& f : query.filters) {
    const size_t i = slot_of(f.column.table);
    if (i < tables.size()) tables[i].filters.push_back(f);
  }
  for (catalog::ColumnId c : query.ReferencedColumns()) {
    const size_t i = slot_of(c.table);
    if (i < tables.size()) tables[i].required_columns.push_back(c);
  }
  // A join edge connects a table once the table on its other side is
  // placed. A predicate within one slot (a folded self-join) or to an
  // unreferenced table therefore never connects anything and is dropped.
  for (const auto& jp : query.joins) {
    const size_t left = slot_of(jp.left.table);
    const size_t right = slot_of(jp.right.table);
    if (left == right || left == tables.size() || right == tables.size()) {
      continue;
    }
    tables[left].joins.push_back({right, jp.left, jp.selectivity});
    tables[right].joins.push_back({left, jp.right, jp.selectivity});
  }

  // Desired physical order (sort avoidance), single-table only.
  if (tables.size() == 1) {
    if (!query.order_by_columns.empty()) {
      for (const auto& [col, desc] : query.order_by_columns) {
        prepared.desired_order_.push_back(col);
      }
    } else if (!query.group_by_columns.empty()) {
      prepared.desired_order_ = query.group_by_columns;
    }
  }
  return prepared;
}

bool Optimizer::CanUse(const PreparedQuery& prepared, const Index& index) {
  const PreparedQuery::Table* slot = nullptr;
  for (const PreparedQuery::Table& t : prepared.tables_) {
    if (t.table == index.table()) {
      slot = &t;
      break;
    }
  }
  if (slot == nullptr) return false;
  bool covering = true;  // clause 3
  for (catalog::ColumnId c : slot->required_columns) {
    if (!index.ContainsColumn(c)) {
      covering = false;
      break;
    }
  }
  if (covering) return true;
  if (index.key_columns().empty()) return false;
  const catalog::ColumnId lead = index.key_columns()[0];
  for (const sql::FilterPredicate& f : slot->filters) {  // clause 1
    if (f.column == lead && f.sargable &&
        (IsEqualityOp(f.op) || IsRangeOp(f.op))) {
      return true;
    }
  }
  for (const PreparedQuery::JoinEdge& edge : slot->joins) {  // clause 2
    if (edge.column == lead) return true;
  }
  return !prepared.desired_order_.empty() &&  // clause 4
         prepared.desired_order_.front() == lead;
}

PlanSummary Optimizer::Optimize(const PreparedQuery& prepared,
                                const Configuration& config) const {
  const CostModel& cm = *cost_model_;
  const catalog::Catalog& cat = cm.catalog();
  const stats::StatsManager& stats = cm.stats();
  const std::vector<PreparedQuery::Table>& tables = prepared.tables_;

  PlanSummary plan;
  if (tables.empty()) return plan;
  const sql::BoundQuery& query = *prepared.query_;
  const bool single_table = tables.size() == 1;

  // --- Per table: the configuration's indexes on it, fetched once for both
  // the access path and index nested loops, and its best access path.
  // Per-thread scratch: tuning calls this hundreds of thousands of times,
  // and a profile of tuning put allocator calls at about a quarter of its
  // time. Only the first tables.size() slots are live. ---
  struct Slot {
    std::vector<const Index*> indexes;
    AccessPath access;
    bool placed = false;
  };
  thread_local std::vector<Slot> slots;
  if (slots.size() < tables.size()) slots.resize(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    const PreparedQuery::Table& t = tables[i];
    config.IndexesOnTable(t.table, &slots[i].indexes);
    slots[i].access =
        cm.BestAccessPath(t.table, t.filters, t.required_columns,
                          prepared.desired_order_, slots[i].indexes);
    slots[i].placed = false;
  }
  plan.tables.reserve(tables.size());

  // --- Join order (greedy left-deep). ---
  double cur_rows = 0.0;

  // Driver: cheapest access per produced row. Semi/anti tables cannot
  // drive (their semantics restrict the *other* side), so prefer inner
  // tables; a query whose tables are all semi/anti is degenerate but legal.
  size_t driver = 0;
  double best_score = kInf;
  bool driver_inner = false;
  for (size_t i = 0; i < tables.size(); ++i) {
    const bool inner = tables[i].semantics == sql::JoinSemantics::kInner;
    if (driver_inner && !inner) continue;
    const double score = slots[i].access.cost + slots[i].access.out_rows * 0.01;
    if ((inner && !driver_inner) || score < best_score) {
      best_score = score;
      driver = i;
      driver_inner = inner;
    }
  }
  {
    PlannedTable pt;
    pt.table = tables[driver].table;
    pt.access = slots[driver].access;
    pt.join_method = JoinMethod::kNone;
    pt.step_cost = slots[driver].access.cost;
    cur_rows = slots[driver].access.out_rows;
    pt.cumulative_rows = cur_rows;
    plan.total_cost += pt.step_cost;
    plan.tables.push_back(pt);
    slots[driver].placed = true;
  }

  for (size_t step = 1; step < tables.size(); ++step) {
    // Candidate tables joinable with the placed set. Connected candidates
    // always beat cross joins; cross joins only happen when the join graph
    // is disconnected.
    size_t best_i = tables.size();
    JoinMethod best_method = JoinMethod::kCrossJoin;
    const Index* best_inl = nullptr;
    double best_cost = kInf;
    double best_rows = 0.0;
    bool best_connected = false;

    for (size_t i = 0; i < tables.size(); ++i) {
      if (slots[i].placed) continue;
      const PreparedQuery::Table& t = tables[i];
      const AccessPath& access = slots[i].access;
      // Combined selectivity of join predicates linking i to the placed set.
      double join_sel = 1.0;
      bool connected = false;
      for (const PreparedQuery::JoinEdge& edge : t.joins) {
        if (!slots[edge.other].placed) continue;
        connected = true;
        join_sel *= edge.selectivity;
      }
      if (best_connected && !connected) continue;

      double result_rows =
          std::max(1.0, connected ? cur_rows * access.out_rows * join_sel
                                  : cur_rows * access.out_rows);
      // Semi/anti joins (flattened subqueries) cap instead of multiply.
      if (t.semantics == sql::JoinSemantics::kSemi) {
        result_rows = std::min(result_rows, cur_rows);
      } else if (t.semantics == sql::JoinSemantics::kAnti) {
        result_rows = std::max(1.0, cur_rows * kAntiJoinSelectivity);
      }
      // Producing join output rows costs CPU; charging it here both prices
      // huge intermediates and steers the greedy away from shortcut joins
      // that explode cardinality (e.g. joining two entities on a shared
      // low-cardinality dimension key).
      const double output_cpu = result_rows * cm.params().cpu_operator_cost;
      // A connected candidate displaces any cross-join best so far.
      const bool displaces = connected && !best_connected;

      if (connected) {
        // Hash join.
        const double hash_cost =
            output_cpu + access.cost +
            cm.HashJoinCost(std::min(cur_rows, access.out_rows),
                            std::max(cur_rows, access.out_rows));
        if (displaces || hash_cost < best_cost) {
          best_cost = hash_cost;
          best_i = i;
          best_method = JoinMethod::kHashJoin;
          best_inl = nullptr;
          best_rows = result_rows;
          best_connected = true;
        }
        // Index nested loop: the leading index key must be i's column of a
        // join predicate linking it to the placed set (CanUse clause 2).
        for (const Index* index : slots[i].indexes) {
          if (index->key_columns().empty()) continue;
          const catalog::ColumnId lead = index->key_columns()[0];
          bool usable = false;
          for (const PreparedQuery::JoinEdge& edge : t.joins) {
            if (slots[edge.other].placed && edge.column == lead) {
              usable = true;
              break;
            }
          }
          if (!usable) continue;
          const double inner_rows =
              static_cast<double>(cat.table(t.table).row_count());
          const double per_probe =
              std::max(1e-3, inner_rows / std::max(1.0, stats.DistinctCount(lead)));
          bool covering = true;
          for (catalog::ColumnId c : t.required_columns) {
            if (!index->ContainsColumn(c)) {
              covering = false;
              break;
            }
          }
          const double inl_cost =
              output_cpu +
              cm.IndexNestedLoopCost(*index, cur_rows, per_probe, covering);
          if (inl_cost < best_cost) {
            best_cost = inl_cost;
            best_i = i;
            best_method = JoinMethod::kIndexNestedLoop;
            best_inl = index;
            best_rows = result_rows;
            best_connected = true;
          }
        }
      } else {
        const double cross_cost = output_cpu + access.cost;
        if (cross_cost < best_cost) {
          best_cost = cross_cost;
          best_i = i;
          best_method = JoinMethod::kCrossJoin;
          best_inl = nullptr;
          best_rows = result_rows;
        }
      }
    }

    PlannedTable pt;
    pt.table = tables[best_i].table;
    pt.access = slots[best_i].access;
    pt.join_method = best_method;
    pt.inl_index = best_inl;
    pt.step_cost = best_cost;
    cur_rows = best_rows;
    pt.cumulative_rows = cur_rows;
    plan.total_cost += best_cost;
    plan.tables.push_back(pt);
    slots[best_i].placed = true;
  }

  // --- Residual multi-table predicates. ---
  for (const auto& cp : query.complex_predicates) {
    plan.total_cost += cur_rows * cm.params().cpu_operator_cost;
    cur_rows = std::max(1.0, cur_rows * cp.selectivity);
  }

  // --- Aggregation / DISTINCT. ---
  const bool has_agg = !query.aggregates.empty() || !query.group_by_columns.empty();
  if (has_agg) {
    const double groups =
        EstimateGroups(stats, query.group_by_columns, cur_rows);
    const bool can_stream = single_table && query.order_by_columns.empty() &&
                            !query.group_by_columns.empty() &&
                            plan.tables.front().access.provides_order;
    if (can_stream) {
      plan.stream_aggregate = true;
      plan.aggregate_cost = cm.StreamAggCost(cur_rows);
    } else {
      plan.aggregate_cost = cm.HashAggCost(cur_rows, groups);
    }
    plan.total_cost += plan.aggregate_cost;
    cur_rows = groups;
  } else if (query.distinct) {
    const double groups = EstimateGroups(stats, query.output_columns, cur_rows);
    plan.aggregate_cost = cm.HashAggCost(cur_rows, groups);
    plan.total_cost += plan.aggregate_cost;
    cur_rows = groups;
  }
  if (has_agg && query.having_selectivity < 1.0) {
    plan.total_cost += cur_rows * cm.params().cpu_operator_cost;
    cur_rows = std::max(1.0, cur_rows * query.having_selectivity);
  }

  // --- Sort. ---
  if (!query.order_by_columns.empty()) {
    const bool avoided = single_table && !has_agg &&
                         plan.tables.front().access.provides_order;
    if (avoided) {
      plan.sort_avoided_by_index = true;
    } else {
      plan.sort_needed = true;
      plan.sort_cost = cm.SortCost(cur_rows, query.limit);
      plan.total_cost += plan.sort_cost;
    }
  }

  if (query.limit.has_value()) {
    cur_rows = std::min(cur_rows, static_cast<double>(
                                      std::max<int64_t>(1, *query.limit)));
  }
  plan.output_rows = cur_rows;
  return plan;
}

std::string PlanSummary::Explain(const catalog::Catalog& catalog) const {
  std::string out;
  out += StrFormat("Plan cost=%.1f rows=%.0f\n", total_cost, output_rows);
  for (size_t i = 0; i < tables.size(); ++i) {
    const PlannedTable& pt = tables[i];
    out += StrFormat("  [%zu] %s", i, catalog.table(pt.table).name().c_str());
    if (pt.join_method != JoinMethod::kNone) {
      out += StrFormat(" via %s", JoinMethodToString(pt.join_method));
    }
    if (pt.join_method == JoinMethod::kIndexNestedLoop && pt.inl_index != nullptr) {
      out += " using " + pt.inl_index->DebugName(catalog);
    } else if (pt.access.index != nullptr) {
      out += " seek " + pt.access.index->DebugName(catalog);
      if (pt.access.covering) out += " (covering)";
    } else {
      out += " scan";
    }
    out += StrFormat("  cost=%.1f rows=%.0f\n", pt.step_cost, pt.cumulative_rows);
  }
  if (aggregate_cost > 0.0) {
    out += StrFormat("  %s aggregate cost=%.1f\n",
                     stream_aggregate ? "stream" : "hash", aggregate_cost);
  }
  if (sort_needed) out += StrFormat("  sort cost=%.1f\n", sort_cost);
  if (sort_avoided_by_index) out += "  sort avoided by index order\n";
  return out;
}

}  // namespace isum::engine
