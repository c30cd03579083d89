// Differential oracle for prepared planning (engine/optimizer.h):
// Optimizer::Optimize(Prepare(query), config) must return exactly the plan
// the single-pass planner returns, which rebuilt the query's per-table
// context on every call. That planner is kept below, copied verbatim, as
// the reference. Compared field by field — costs and row counts
// bit-for-bit, per step the table, join method, INL index and access index
// (same pointers into the same Configuration), and the sort and aggregate
// flags — over every query of seeded TPC-H-, TPC-DS- and Real-M-like
// workloads under random configurations, reusing one PreparedQuery across
// all of a query's configurations, plus hand-built shapes (self-join fold,
// three predicates on one table pair, semi/anti tables, a disconnected join
// graph, single-table sort avoidance, an empty FROM).
// EnumerationDifferential*'s naive side calls the same Optimizer, so only
// this oracle catches a planner regression.
//
// Also: threads sharing one PreparedQuery get bit-identical plans (run
// under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "advisor/candidate_generation.h"
#include "catalog/schema_builder.h"
#include "common/rng.h"
#include "engine/optimizer.h"
#include "engine/what_if.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats/data_generator.h"
#include "workload/workload_factory.h"

namespace isum::engine {
namespace {

// ---- Reference: the single-pass planner, verbatim ----

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-table slice of the query used while planning.
struct TableContext {
  catalog::TableId table = catalog::kInvalidTableId;
  sql::JoinSemantics semantics = sql::JoinSemantics::kInner;
  std::vector<sql::FilterPredicate> filters;
  std::vector<catalog::ColumnId> required_columns;
  AccessPath access;
};

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

PlanSummary NaiveOptimize(const CostModel& cm, const sql::BoundQuery& query,
                          const Configuration& config) {
  const catalog::Catalog& cat = cm.catalog();
  const stats::StatsManager& stats = cm.stats();

  PlanSummary plan;
  if (query.tables.empty()) return plan;

  // --- Partition query state by table. ---
  std::vector<TableContext> ctx;
  std::unordered_map<catalog::TableId, size_t> ctx_index;
  for (const auto& ref : query.tables) {
    if (ctx_index.contains(ref.table)) continue;  // self-join: fold
    ctx_index[ref.table] = ctx.size();
    TableContext tc;
    tc.table = ref.table;
    tc.semantics = ref.semantics;
    ctx.push_back(std::move(tc));
  }
  for (const auto& f : query.filters) {
    auto it = ctx_index.find(f.column.table);
    if (it != ctx_index.end()) ctx[it->second].filters.push_back(f);
  }
  for (catalog::ColumnId c : query.ReferencedColumns()) {
    auto it = ctx_index.find(c.table);
    if (it != ctx_index.end()) ctx[it->second].required_columns.push_back(c);
  }

  const bool single_table = ctx.size() == 1;

  // Desired physical order (sort avoidance), single-table only.
  std::vector<catalog::ColumnId> desired_order;
  if (single_table) {
    if (!query.order_by_columns.empty()) {
      for (const auto& [col, desc] : query.order_by_columns) {
        desired_order.push_back(col);
      }
    } else if (!query.group_by_columns.empty()) {
      desired_order = query.group_by_columns;
    }
  }

  // --- Access path per table. ---
  for (TableContext& tc : ctx) {
    tc.access = cm.BestAccessPath(tc.table, tc.filters, tc.required_columns,
                                  single_table ? desired_order
                                               : std::vector<catalog::ColumnId>{},
                                  config);
  }

  // --- Join order (greedy left-deep). ---
  std::vector<bool> placed(ctx.size(), false);
  double cur_rows = 0.0;

  // Driver: cheapest access per produced row. Semi/anti tables cannot
  // drive (their semantics restrict the *other* side), so prefer inner
  // tables; a query whose tables are all semi/anti is degenerate but legal.
  size_t driver = 0;
  double best_score = kInf;
  bool driver_inner = false;
  for (size_t i = 0; i < ctx.size(); ++i) {
    const bool inner = ctx[i].semantics == sql::JoinSemantics::kInner;
    if (driver_inner && !inner) continue;
    const double score = ctx[i].access.cost + ctx[i].access.out_rows * 0.01;
    if ((inner && !driver_inner) || score < best_score) {
      best_score = score;
      driver = i;
      driver_inner = inner;
    }
  }
  {
    PlannedTable pt;
    pt.table = ctx[driver].table;
    pt.access = ctx[driver].access;
    pt.join_method = JoinMethod::kNone;
    pt.step_cost = ctx[driver].access.cost;
    cur_rows = ctx[driver].access.out_rows;
    pt.cumulative_rows = cur_rows;
    plan.total_cost += pt.step_cost;
    plan.tables.push_back(pt);
    placed[driver] = true;
  }

  for (size_t step = 1; step < ctx.size(); ++step) {
    // Candidate tables joinable with the placed set. Connected candidates
    // always beat cross joins; cross joins only happen when the join graph
    // is disconnected.
    size_t best_i = ctx.size();
    JoinMethod best_method = JoinMethod::kCrossJoin;
    const Index* best_inl = nullptr;
    double best_cost = kInf;
    double best_rows = 0.0;
    bool best_connected = false;

    for (size_t i = 0; i < ctx.size(); ++i) {
      if (placed[i]) continue;
      // Combined selectivity of join predicates linking i to the placed set,
      // and the i-side join columns (for INL).
      double join_sel = 1.0;
      bool connected = false;
      std::vector<catalog::ColumnId> inner_join_cols;
      for (const auto& jp : query.joins) {
        const bool left_in_i = jp.left.table == ctx[i].table;
        const bool right_in_i = jp.right.table == ctx[i].table;
        if (!left_in_i && !right_in_i) continue;
        const catalog::ColumnId other = left_in_i ? jp.right : jp.left;
        auto oit = ctx_index.find(other.table);
        if (oit == ctx_index.end() || !placed[oit->second]) continue;
        connected = true;
        join_sel *= jp.selectivity;
        inner_join_cols.push_back(left_in_i ? jp.left : jp.right);
      }
      if (best_connected && !connected) continue;

      const TableContext& tc = ctx[i];
      double result_rows =
          std::max(1.0, connected ? cur_rows * tc.access.out_rows * join_sel
                                  : cur_rows * tc.access.out_rows);
      // Semi/anti joins (flattened subqueries) cap instead of multiply.
      if (tc.semantics == sql::JoinSemantics::kSemi) {
        result_rows = std::min(result_rows, cur_rows);
      } else if (tc.semantics == sql::JoinSemantics::kAnti) {
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
            output_cpu + tc.access.cost +
            cm.HashJoinCost(std::min(cur_rows, tc.access.out_rows),
                            std::max(cur_rows, tc.access.out_rows));
        if (displaces || hash_cost < best_cost) {
          best_cost = hash_cost;
          best_i = i;
          best_method = JoinMethod::kHashJoin;
          best_inl = nullptr;
          best_rows = result_rows;
          best_connected = true;
        }
        // Index nested loop: leading index key must be an inner join column.
        for (const Index* index : config.IndexesOnTable(tc.table)) {
          if (index->key_columns().empty()) continue;
          const catalog::ColumnId lead = index->key_columns()[0];
          bool usable = false;
          for (catalog::ColumnId jc : inner_join_cols) {
            if (jc == lead) {
              usable = true;
              break;
            }
          }
          if (!usable) continue;
          const double inner_rows =
              static_cast<double>(cat.table(tc.table).row_count());
          const double per_probe =
              std::max(1e-3, inner_rows / std::max(1.0, stats.DistinctCount(lead)));
          bool covering = true;
          for (catalog::ColumnId c : tc.required_columns) {
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
        const double cross_cost = output_cpu + tc.access.cost;
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
    pt.table = ctx[best_i].table;
    pt.access = ctx[best_i].access;
    pt.join_method = best_method;
    pt.inl_index = best_inl;
    pt.step_cost = best_cost;
    cur_rows = best_rows;
    pt.cumulative_rows = cur_rows;
    plan.total_cost += best_cost;
    plan.tables.push_back(pt);
    placed[best_i] = true;
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

// ---- Comparison ----

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Expects `got` to equal `want` exactly. Index pointers are compared by
/// identity: both plans were built against the same Configuration object.
void ExpectSamePlan(const PlanSummary& got, const PlanSummary& want,
                    const std::string& where) {
  EXPECT_EQ(Bits(got.total_cost), Bits(want.total_cost)) << where;
  EXPECT_EQ(Bits(got.output_rows), Bits(want.output_rows)) << where;
  EXPECT_EQ(got.sort_needed, want.sort_needed) << where;
  EXPECT_EQ(got.sort_avoided_by_index, want.sort_avoided_by_index) << where;
  EXPECT_EQ(got.stream_aggregate, want.stream_aggregate) << where;
  EXPECT_EQ(Bits(got.aggregate_cost), Bits(want.aggregate_cost)) << where;
  EXPECT_EQ(Bits(got.sort_cost), Bits(want.sort_cost)) << where;
  ASSERT_EQ(got.tables.size(), want.tables.size()) << where;
  for (size_t s = 0; s < got.tables.size(); ++s) {
    const PlannedTable& g = got.tables[s];
    const PlannedTable& w = want.tables[s];
    const std::string step = where + " step " + std::to_string(s);
    EXPECT_EQ(g.table, w.table) << step;
    EXPECT_EQ(g.join_method, w.join_method) << step;
    EXPECT_EQ(g.inl_index, w.inl_index) << step;
    EXPECT_EQ(g.access.index, w.access.index) << step;
    EXPECT_EQ(Bits(g.access.cost), Bits(w.access.cost)) << step;
    EXPECT_EQ(g.access.covering, w.access.covering) << step;
    EXPECT_EQ(g.access.provides_order, w.access.provides_order) << step;
    EXPECT_EQ(Bits(g.step_cost), Bits(w.step_cost)) << step;
    EXPECT_EQ(Bits(g.cumulative_rows), Bits(w.cumulative_rows)) << step;
  }
}

// ---- Seeded workloads under random configurations ----

constexpr size_t kConfigsPerQuery = 12;

/// A random configuration for `query`: up to 4 of its own candidates (so
/// seeks, covering scans, sort avoidance and index nested loops all come
/// up) interleaved with up to 4 indexes from the whole workload's pool,
/// which are mostly on tables the query does not reference.
Configuration RandomConfiguration(const std::vector<Index>& own,
                                  const std::vector<Index>& pool, Rng& rng) {
  std::vector<const Index*> picks;
  const size_t n_own = own.empty() ? 0 : rng.NextUint64(5);
  for (size_t k = 0; k < n_own; ++k) {
    picks.push_back(&own[rng.NextUint64(own.size())]);
  }
  const size_t n_pool = rng.NextUint64(5);
  for (size_t k = 0; k < n_pool; ++k) {
    picks.push_back(&pool[rng.NextUint64(pool.size())]);
  }
  rng.Shuffle(picks);
  Configuration config;
  for (const Index* index : picks) config.Add(*index);
  return config;
}

struct Case {
  const char* workload;
  uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << "/" << c.seed;
}

class OptimizerDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(OptimizerDifferentialTest, PreparedMatchesSinglePass) {
  workload::GeneratorOptions gen;
  gen.seed = GetParam().seed;
  gen.instances_per_template = 2;
  gen.max_templates = 40;
  const workload::GeneratedWorkload env =
      workload::MakeWorkloadByName(GetParam().workload, gen);
  const workload::Workload& w = *env.workload;
  ASSERT_GT(w.size(), 0u);

  std::vector<std::vector<Index>> own(w.size());
  std::vector<Index> pool;
  std::unordered_set<Index> seen;
  for (size_t i = 0; i < w.size(); ++i) {
    own[i] = advisor::GenerateCandidates(w.query(i).bound, *env.stats);
    for (const Index& index : own[i]) {
      if (seen.insert(index).second) pool.push_back(index);
    }
  }
  ASSERT_GT(pool.size(), 1u);

  const Optimizer optimizer(env.cost_model.get());
  Rng rng(GetParam().seed * 7919 + 1);
  size_t multi_table = 0;
  size_t inl_steps = 0;
  size_t seeks = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    const sql::BoundQuery& q = w.query(i).bound;
    const PreparedQuery prepared = Optimizer::Prepare(q);
    if (q.tables.size() > 1) ++multi_table;
    for (size_t c = 0; c < kConfigsPerQuery; ++c) {
      const Configuration config =
          c == 0 ? Configuration() : RandomConfiguration(own[i], pool, rng);
      const PlanSummary want = NaiveOptimize(*env.cost_model, q, config);
      const PlanSummary got = optimizer.Optimize(prepared, config);
      ExpectSamePlan(got, want,
                     "query " + std::to_string(i) + " config " +
                         std::to_string(c));
      // The unprepared overload is the same planner.
      EXPECT_EQ(Bits(optimizer.Cost(q, config)), Bits(want.total_cost));
      for (const PlannedTable& pt : want.tables) {
        inl_steps += pt.join_method == JoinMethod::kIndexNestedLoop;
        seeks += pt.access.index != nullptr;
      }
    }
  }
  // The sweep must actually reach the configuration-dependent choices.
  EXPECT_GT(multi_table, 0u);
  EXPECT_GT(seeks, 0u);
  if (std::string(GetParam().workload) != "realm") {
    EXPECT_GT(inl_steps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OptimizerDifferential, OptimizerDifferentialTest,
    ::testing::Values(Case{"tpch", 1}, Case{"tpch", 2}, Case{"tpcds", 1},
                      Case{"tpcds", 2}, Case{"realm", 1}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.workload) + "_seed" +
             std::to_string(info.param.seed);
    });

// ---- Hand-built shapes ----

class OptimizerDifferentialShapes : public ::testing::Test {
 protected:
  OptimizerDifferentialShapes()
      : stats_(&cat_), cost_model_(&cat_, &stats_), optimizer_(&cost_model_) {
    catalog::SchemaBuilder b(&cat_);
    b.Table("t1", 100'000)
        .Key("a", catalog::ColumnType::kInt)
        .Col("b", catalog::ColumnType::kInt)
        .Col("c", catalog::ColumnType::kInt);
    b.Table("t2", 50'000)
        .Key("x", catalog::ColumnType::kInt)
        .Col("y", catalog::ColumnType::kInt);
    b.Table("t3", 1'000)
        .Key("p", catalog::ColumnType::kInt)
        .Col("q", catalog::ColumnType::kInt);
    b.Table("t4", 500)
        .Key("k", catalog::ColumnType::kInt)
        .Col("v", catalog::ColumnType::kInt);
    stats::DataGenerator dg;
    Rng rng(1);
    for (const char* t : {"t1", "t2", "t3", "t4"}) {
      const catalog::Table* table = cat_.FindTable(t);
      for (const catalog::Column& col : table->columns()) {
        stats::ColumnDataSpec spec;
        spec.distribution = col.is_key ? stats::Distribution::kKey
                                       : stats::Distribution::kUniform;
        spec.distinct = 100;
        spec.domain_min = 0;
        spec.domain_max = 100;
        stats_.SetStats(catalog::ColumnId{table->id(), col.ordinal},
                        dg.Generate(spec, table->row_count(), rng));
      }
    }
    // Every single- and two-column key index over every table, plus a
    // covering variant per table: seeks, index-only scans, order providers
    // and INL probes on every join column.
    for (size_t id = 0; id < cat_.num_tables(); ++id) {
      const catalog::Table& table =
          cat_.table(static_cast<catalog::TableId>(id));
      std::vector<catalog::ColumnId> cols;
      for (const catalog::Column& col : table.columns()) {
        cols.push_back(catalog::ColumnId{table.id(), col.ordinal});
      }
      for (catalog::ColumnId lead : cols) {
        indexes_.emplace_back(table.id(), std::vector<catalog::ColumnId>{lead});
        for (catalog::ColumnId second : cols) {
          if (second == lead) continue;
          indexes_.emplace_back(table.id(),
                                std::vector<catalog::ColumnId>{lead, second});
        }
      }
      indexes_.emplace_back(table.id(),
                            std::vector<catalog::ColumnId>{cols.back()}, cols);
    }
  }

  sql::BoundQuery Bind(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    sql::Binder binder(&cat_, &stats_);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    return std::move(bound).value();
  }

  /// Compares prepared and single-pass plans for `q` under the empty
  /// configuration, each index alone, and random mixes; returns the plan
  /// under the full index set for shape checks.
  PlanSummary ExpectSameUnderConfigs(const sql::BoundQuery& q,
                                     const std::string& label) {
    const PreparedQuery prepared = Optimizer::Prepare(q);
    std::vector<Configuration> configs(1);
    for (const Index& index : indexes_) {
      configs.emplace_back(std::vector{index});
    }
    Rng rng(17);
    for (int r = 0; r < 40; ++r) {
      configs.push_back(RandomConfiguration(indexes_, indexes_, rng));
    }
    configs.emplace_back(indexes_);
    for (size_t c = 0; c < configs.size(); ++c) {
      ExpectSamePlan(optimizer_.Optimize(prepared, configs[c]),
                     NaiveOptimize(cost_model_, q, configs[c]),
                     label + " config " + std::to_string(c));
    }
    full_ = configs.back();
    return optimizer_.Optimize(prepared, full_);
  }

  catalog::Catalog cat_;
  stats::StatsManager stats_;
  CostModel cost_model_;
  Optimizer optimizer_;
  std::vector<Index> indexes_;
  Configuration full_;  ///< owns the indexes of the last returned plan
};

TEST_F(OptimizerDifferentialShapes, SelfJoinFoldsToOneSlot) {
  const sql::BoundQuery q = Bind(
      "SELECT a.b FROM t1 a, t1 b2, t2 WHERE a.b = t2.x AND b2.c = t2.y "
      "AND a.c = 5");
  const PlanSummary plan = ExpectSameUnderConfigs(q, "self-join");
  EXPECT_EQ(plan.tables.size(), 2u);
  const sql::BoundQuery inner = Bind(
      "SELECT a.b FROM t1 a, t1 b2 WHERE a.b = b2.c ORDER BY a.b");
  EXPECT_EQ(ExpectSameUnderConfigs(inner, "self-join within one slot")
                .tables.size(),
            1u);
}

TEST_F(OptimizerDifferentialShapes, JoinPredicatesMultiplyInBindOrder) {
  // Three predicates link t1 and t2. Their selectivity product is
  // order-sensitive in floating point (1.0 * 0.1 * 0.2 * 0.3 and
  // 1.0 * 0.3 * 0.2 * 0.1 differ in the last bit), and the join is large
  // enough that the difference survives into rows and costs.
  const catalog::TableId t1 = cat_.FindTable("t1")->id();
  const catalog::TableId t2 = cat_.FindTable("t2")->id();
  sql::BoundQuery q;
  q.tables = {{t1, "t1", sql::JoinSemantics::kInner},
              {t2, "t2", sql::JoinSemantics::kInner}};
  auto col = [this](const char* table, const char* column) {
    return cat_.ResolveColumn(table, column);
  };
  q.joins = {{col("t1", "a"), col("t2", "x"), 0.1},
             {col("t1", "b"), col("t2", "y"), 0.2},
             {col("t1", "c"), col("t2", "x"), 0.3}};
  q.output_columns = {col("t1", "a")};
  const PlanSummary plan = ExpectSameUnderConfigs(q, "three predicates");
  EXPECT_GT(plan.output_rows, 1.0);
}

TEST_F(OptimizerDifferentialShapes, SemiAndAntiTables) {
  for (const char* sql :
       {"SELECT a FROM t1 WHERE EXISTS (SELECT * FROM t2 WHERE t2.x = t1.b)",
        "SELECT a FROM t1 WHERE NOT EXISTS "
        "(SELECT * FROM t2 WHERE t2.x = t1.b)",
        "SELECT a FROM t1 WHERE b IN (SELECT x FROM t2 WHERE t2.y > 5) AND "
        "c NOT IN (SELECT p FROM t3)",
        "SELECT t1.a, COUNT(*) FROM t1, t4 WHERE t1.c = t4.k AND EXISTS "
        "(SELECT * FROM t2 WHERE t2.x = t1.b) GROUP BY t1.a"}) {
    const sql::BoundQuery q = Bind(sql);
    bool restricted = false;
    for (const sql::BoundTableRef& ref : q.tables) {
      restricted |= ref.semantics != sql::JoinSemantics::kInner;
    }
    EXPECT_TRUE(restricted) << sql;
    ExpectSameUnderConfigs(q, sql);
  }
}

TEST_F(OptimizerDifferentialShapes, DisconnectedJoinGraphCrossJoins) {
  const sql::BoundQuery q = Bind(
      "SELECT COUNT(*) FROM t1, t2, t3, t4 WHERE t1.b = t2.x AND t3.q = 4 "
      "AND t4.v = t3.p");
  const PlanSummary plan = ExpectSameUnderConfigs(q, "disconnected");
  int cross = 0;
  for (const PlannedTable& pt : plan.tables) {
    cross += pt.join_method == JoinMethod::kCrossJoin;
  }
  EXPECT_EQ(cross, 1);
}

TEST_F(OptimizerDifferentialShapes, SingleTableSortAvoidance) {
  const PlanSummary ordered = ExpectSameUnderConfigs(
      Bind("SELECT b, c FROM t1 WHERE b > 40 ORDER BY b, c"), "order by");
  EXPECT_TRUE(ordered.sort_avoided_by_index);
  const PlanSummary grouped = ExpectSameUnderConfigs(
      Bind("SELECT b, COUNT(*) FROM t1 WHERE c = 3 GROUP BY b"), "group by");
  EXPECT_TRUE(grouped.stream_aggregate);
  ExpectSameUnderConfigs(
      Bind("SELECT q, COUNT(*) FROM t3 GROUP BY q ORDER BY q DESC LIMIT 3"),
      "group and order");
  ExpectSameUnderConfigs(Bind("SELECT DISTINCT y FROM t2 WHERE x < 9"),
                         "distinct");
}

TEST_F(OptimizerDifferentialShapes, EmptyFromPlansNothing) {
  const sql::BoundQuery empty;
  const PreparedQuery prepared = Optimizer::Prepare(empty);
  const Configuration config(indexes_);
  const PlanSummary plan = optimizer_.Optimize(prepared, config);
  ExpectSamePlan(plan, NaiveOptimize(cost_model_, empty, config), "empty");
  EXPECT_TRUE(plan.tables.empty());
  EXPECT_EQ(plan.total_cost, 0.0);
}

// ---- One PreparedQuery shared across threads ----

TEST_F(OptimizerDifferentialShapes, SharedPreparedQueryAcrossThreads) {
  const sql::BoundQuery q = Bind(
      "SELECT t1.a, COUNT(*) FROM t1, t2, t3 WHERE t1.b = t2.x AND "
      "t2.y = t3.p AND t1.c < 30 GROUP BY t1.a");
  const PreparedQuery prepared = Optimizer::Prepare(q);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 64;
  std::vector<Configuration> configs;
  Rng rng(99);
  for (size_t i = 0; i < kThreads * kPerThread; ++i) {
    configs.push_back(RandomConfiguration(indexes_, indexes_, rng));
  }
  std::vector<PlanSummary> serial;
  for (const Configuration& config : configs) {
    serial.push_back(optimizer_.Optimize(prepared, config));
  }

  WhatIfOptimizer what_if(&cost_model_);
  std::vector<PlanSummary> plans(configs.size());
  std::vector<double> costs(configs.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Interleaved so the threads' configurations differ at every moment.
      for (size_t i = t; i < configs.size(); i += kThreads) {
        plans[i] = optimizer_.Optimize(prepared, configs[i]);
        costs[i] = *what_if.TryCost(prepared, configs[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(what_if.optimizer_calls(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    ExpectSamePlan(plans[i], serial[i], "config " + std::to_string(i));
    EXPECT_EQ(Bits(costs[i]), Bits(serial[i].total_cost)) << i;
  }
}

}  // namespace
}  // namespace isum::engine
