// Edge-case tests for the optimizer: disconnected join graphs, self-joins,
// DISTINCT, LIMIT interactions, residual predicates, group estimation.

#include <gtest/gtest.h>

#include "catalog/schema_builder.h"
#include "engine/optimizer.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats/data_generator.h"

namespace isum::engine {
namespace {

class OptimizerEdgeTest : public ::testing::Test {
 protected:
  OptimizerEdgeTest() : stats_(&cat_), cost_model_(&cat_, &stats_) {
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
    stats::DataGenerator dg;
    Rng rng(1);
    for (const char* t : {"t1", "t2", "t3"}) {
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
  }

  sql::BoundQuery Bind(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    sql::Binder binder(&cat_, &stats_);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(bound).value();
  }

  PlanSummary Plan(const std::string& sql) {
    sql::BoundQuery q = Bind(sql);
    Optimizer opt(&cost_model_);
    return opt.Optimize(q, Configuration());
  }

  catalog::Catalog cat_;
  stats::StatsManager stats_;
  CostModel cost_model_;
};

TEST_F(OptimizerEdgeTest, DisconnectedTablesCrossJoin) {
  PlanSummary plan = Plan("SELECT t1.b, t2.y FROM t1, t2 WHERE t1.b = 3");
  ASSERT_EQ(plan.tables.size(), 2u);
  EXPECT_EQ(plan.tables[1].join_method, JoinMethod::kCrossJoin);
  // Output is the product of both filtered sides.
  EXPECT_GT(plan.output_rows, 1000.0);
}

TEST_F(OptimizerEdgeTest, PartiallyConnectedGraphHasExactlyOneCrossJoin) {
  // t1-t2 joined; t3 dangling: exactly one cross join, and the connected
  // pair still joins via hash (never cross).
  PlanSummary plan = Plan(
      "SELECT COUNT(*) FROM t1, t2, t3 WHERE t1.b = t2.x");
  ASSERT_EQ(plan.tables.size(), 3u);
  int cross = 0, hash = 0;
  for (const PlannedTable& pt : plan.tables) {
    cross += (pt.join_method == JoinMethod::kCrossJoin);
    hash += (pt.join_method == JoinMethod::kHashJoin);
  }
  EXPECT_EQ(cross, 1);
  EXPECT_EQ(hash, 1);
}

TEST_F(OptimizerEdgeTest, SelfJoinAliasesFoldToOneTable) {
  // Our single-block model folds self-joins onto one table instance.
  PlanSummary plan =
      Plan("SELECT a.b FROM t1 a, t1 b2 WHERE a.b = 5 AND b2.c = 7");
  EXPECT_EQ(plan.tables.size(), 1u);
  EXPECT_GT(plan.total_cost, 0.0);
}

TEST_F(OptimizerEdgeTest, DistinctAddsAggregationCost) {
  PlanSummary with = Plan("SELECT DISTINCT b FROM t1");
  PlanSummary without = Plan("SELECT b FROM t1");
  EXPECT_GT(with.total_cost, without.total_cost);
  EXPECT_LE(with.output_rows, 101.0);  // b has ~100 distinct values
}

TEST_F(OptimizerEdgeTest, GroupCountCappedByInputRows) {
  PlanSummary plan = Plan(
      "SELECT b, c, COUNT(*) FROM t1 WHERE b = 1 GROUP BY b, c");
  // Groups cannot exceed the filtered input cardinality.
  EXPECT_LE(plan.output_rows, 100'000.0 * 0.02);
}

TEST_F(OptimizerEdgeTest, LimitCapsOutputRows) {
  PlanSummary plan = Plan("SELECT b FROM t1 LIMIT 5");
  EXPECT_LE(plan.output_rows, 5.0);
}

TEST_F(OptimizerEdgeTest, TopNSortCheaperThanFullSort) {
  PlanSummary top_n = Plan("SELECT b FROM t1 ORDER BY b LIMIT 5");
  PlanSummary full = Plan("SELECT b FROM t1 ORDER BY b");
  EXPECT_TRUE(top_n.sort_needed);
  EXPECT_LT(top_n.sort_cost, full.sort_cost);
}

TEST_F(OptimizerEdgeTest, ResidualPredicateEvaluatedAfterJoins) {
  // Without downstream operators the residual only adds evaluation CPU...
  PlanSummary with = Plan(
      "SELECT t1.b FROM t1, t2 WHERE t1.b = t2.x AND t1.c + t2.y > 50");
  PlanSummary without = Plan("SELECT t1.b FROM t1, t2 WHERE t1.b = t2.x");
  EXPECT_GT(with.total_cost, without.total_cost);
  EXPECT_LT(with.output_rows, without.output_rows);
  // ...but it can pay for itself by shrinking an aggregation's input
  // (filter pushed below the aggregate), like a real optimizer.
  PlanSummary agg_with = Plan(
      "SELECT COUNT(*) FROM t1, t2 WHERE t1.b = t2.x AND t1.c + t2.y > 50");
  PlanSummary agg_without =
      Plan("SELECT COUNT(*) FROM t1, t2 WHERE t1.b = t2.x");
  EXPECT_LT(agg_with.aggregate_cost, agg_without.aggregate_cost);
}

TEST_F(OptimizerEdgeTest, EmptyishQueryStillPlans) {
  PlanSummary plan = Plan("SELECT COUNT(*) FROM t3");
  ASSERT_EQ(plan.tables.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.output_rows, 1.0);  // single aggregate row
}

TEST_F(OptimizerEdgeTest, PlanCostStrictlyPositive) {
  for (const char* sql :
       {"SELECT * FROM t3", "SELECT p FROM t3 WHERE p = 1",
        "SELECT q, COUNT(*) FROM t3 GROUP BY q ORDER BY q DESC LIMIT 3"}) {
    EXPECT_GT(Plan(sql).total_cost, 0.0) << sql;
  }
}

TEST_F(OptimizerEdgeTest, DeterministicPlans) {
  const std::string sql =
      "SELECT t1.b, COUNT(*) FROM t1, t2 WHERE t1.b = t2.x GROUP BY t1.b";
  const PlanSummary a = Plan(sql);
  const PlanSummary b = Plan(sql);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_EQ(a.tables[i].table, b.tables[i].table);
    EXPECT_EQ(a.tables[i].join_method, b.tables[i].join_method);
  }
}

TEST_F(OptimizerEdgeTest, IndexToDdlRoundTripsThroughNames) {
  const catalog::TableId t1 = cat_.FindTable("t1")->id();
  Index index(t1, {cat_.ResolveColumn("t1", "b")},
              {cat_.ResolveColumn("t1", "c")});
  const std::string ddl = index.ToDdl(cat_, 3);
  EXPECT_EQ(ddl, "CREATE INDEX ix_t1_3 ON t1 (b) INCLUDE (c);");
}

}  // namespace
}  // namespace isum::engine
