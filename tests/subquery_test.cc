// Tests for [NOT] EXISTS / [NOT] IN subqueries: parsing, printing,
// templatization, binder flattening into semi/anti joins, optimizer
// cardinality, and execution semantics.

#include <gtest/gtest.h>

#include <optional>

#include "catalog/schema_builder.h"
#include "engine/optimizer.h"
#include "exec/executor.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/templatizer.h"
#include "stats/data_generator.h"
#include "workload/workload_factory.h"

namespace isum::sql {
namespace {

// --- Parse / print / template. ---

TEST(SubqueryParse, ExistsAndNotExists) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.x = t.a)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->where->kind(), ExpressionKind::kExists);
  EXPECT_FALSE(static_cast<const ExistsExpression&>(*stmt->where).negated());

  auto neg = ParseSelect(
      "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.x = t.a)");
  ASSERT_TRUE(neg.ok());
  ASSERT_EQ(neg->where->kind(), ExpressionKind::kExists);
  EXPECT_TRUE(static_cast<const ExistsExpression&>(*neg->where).negated());
}

TEST(SubqueryParse, InSubquery) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE a IN (SELECT x FROM u WHERE u.y > 5)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->where->kind(), ExpressionKind::kInSubquery);
  const auto& in = static_cast<const InSubqueryExpression&>(*stmt->where);
  EXPECT_FALSE(in.negated());
  EXPECT_EQ(in.subquery().from[0].table_name, "u");
}

TEST(SubqueryParse, MixedWithOtherConjuncts) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE b = 1 AND EXISTS (SELECT * FROM u WHERE u.x = "
      "t.a) AND c < 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
}

TEST(SubqueryParse, PrintRoundTrip) {
  for (const char* sql :
       {"SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.x = t.a)",
        "SELECT a FROM t WHERE a NOT IN (SELECT x FROM u)",
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.y < 2)"}) {
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const std::string printed = StatementToSql(*stmt);
    auto again = ParseSelect(printed);
    ASSERT_TRUE(again.ok()) << printed;
    EXPECT_EQ(printed, StatementToSql(*again));
  }
}

TEST(SubqueryTemplate, LiteralsInsideSubqueryMasked) {
  auto a = ParseSelect(
      "SELECT a FROM t WHERE a IN (SELECT x FROM u WHERE u.y > 5)");
  auto b = ParseSelect(
      "SELECT a FROM t WHERE a IN (SELECT x FROM u WHERE u.y > 999)");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(TemplateHash(*a), TemplateHash(*b));
  auto c = ParseSelect(
      "SELECT a FROM t WHERE a IN (SELECT x FROM u WHERE u.z > 5)");
  EXPECT_NE(TemplateHash(*a), TemplateHash(*c));
}

// --- Binder flattening. ---

class SubqueryBindTest : public ::testing::Test {
 protected:
  SubqueryBindTest() : stats_(&cat_) {
    catalog::SchemaBuilder b(&cat_);
    b.Table("t", 100'000)
        .Key("a", catalog::ColumnType::kInt)
        .Col("b", catalog::ColumnType::kInt);
    b.Table("u", 50'000)
        .Key("x", catalog::ColumnType::kInt)
        .Col("y", catalog::ColumnType::kInt)
        .Col("ta", catalog::ColumnType::kInt);  // FK to t.a
    stats::DataGenerator dg;
    Rng rng(1);
    auto set = [&](const char* table, const char* col, uint64_t distinct) {
      stats::ColumnDataSpec spec;
      spec.distinct = distinct;
      spec.domain_min = 0;
      spec.domain_max = static_cast<double>(distinct);
      const catalog::ColumnId id = cat_.ResolveColumn(table, col);
      stats_.SetStats(id, dg.Generate(spec, cat_.table(id.table).row_count(), rng));
    };
    set("t", "b", 100);
    set("u", "y", 100);
    set("u", "ta", 100'000);
  }

  BoundQuery MustBind(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&cat_, &stats_);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString() << "\n" << sql;
    return bound.ok() ? std::move(bound).value() : BoundQuery{};
  }

  catalog::Catalog cat_;
  stats::StatsManager stats_;
};

TEST_F(SubqueryBindTest, ExistsBecomesSemiJoinedTable) {
  BoundQuery q = MustBind(
      "SELECT b FROM t WHERE b = 3 AND EXISTS (SELECT * FROM u WHERE "
      "u.ta = t.a AND u.y < 10)");
  ASSERT_EQ(q.tables.size(), 2u);
  EXPECT_EQ(q.tables[0].semantics, JoinSemantics::kInner);
  EXPECT_EQ(q.tables[1].semantics, JoinSemantics::kSemi);
  // The correlation became a join; the subquery filter a regular filter.
  ASSERT_EQ(q.joins.size(), 1u);
  EXPECT_EQ(q.filters.size(), 2u);
}

TEST_F(SubqueryBindTest, NotExistsBecomesAntiJoin) {
  BoundQuery q = MustBind(
      "SELECT b FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.ta = t.a)");
  ASSERT_EQ(q.tables.size(), 2u);
  EXPECT_EQ(q.tables[1].semantics, JoinSemantics::kAnti);
}

TEST_F(SubqueryBindTest, InSubqueryAddsEqualityJoin) {
  BoundQuery q = MustBind(
      "SELECT b FROM t WHERE a IN (SELECT ta FROM u WHERE u.y = 7)");
  ASSERT_EQ(q.tables.size(), 2u);
  EXPECT_EQ(q.tables[1].semantics, JoinSemantics::kSemi);
  ASSERT_EQ(q.joins.size(), 1u);
  EXPECT_EQ(cat_.ColumnDebugName(q.joins[0].left) == "t.a" ||
                cat_.ColumnDebugName(q.joins[0].right) == "t.a",
            true);
}

TEST_F(SubqueryBindTest, TemplateHashUsesOriginalSql) {
  BoundQuery sub = MustBind(
      "SELECT b FROM t WHERE a IN (SELECT ta FROM u WHERE u.y = 7)");
  BoundQuery flat = MustBind(
      "SELECT b FROM t, u WHERE a = ta AND u.y = 7");
  EXPECT_NE(sub.template_hash, flat.template_hash);
}

TEST_F(SubqueryBindTest, AliasCollisionRejected) {
  auto stmt = ParseSelect(
      "SELECT b FROM t WHERE EXISTS (SELECT * FROM t WHERE t.b = 1)");
  Binder binder(&cat_, &stats_);
  auto bound = binder.Bind(*stmt);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kUnimplemented);
}

TEST_F(SubqueryBindTest, AggregatingSubqueryRejected) {
  auto stmt = ParseSelect(
      "SELECT b FROM t WHERE a IN (SELECT ta FROM u GROUP BY ta)");
  Binder binder(&cat_, &stats_);
  EXPECT_FALSE(binder.Bind(*stmt).ok());
}

TEST_F(SubqueryBindTest, NestedSubqueriesFlatten) {
  // u filtered by an inner EXISTS over t2 — needs a third table.
  catalog::SchemaBuilder b(&cat_);
  b.Table("v", 1'000).Key("vk", catalog::ColumnType::kInt).Col("uy", catalog::ColumnType::kInt);
  BoundQuery q = MustBind(
      "SELECT b FROM t WHERE EXISTS (SELECT * FROM u WHERE u.ta = t.a AND "
      "EXISTS (SELECT * FROM v WHERE v.uy = u.y))");
  ASSERT_EQ(q.tables.size(), 3u);
  EXPECT_EQ(q.tables[1].semantics, JoinSemantics::kSemi);
  EXPECT_EQ(q.tables[2].semantics, JoinSemantics::kSemi);
  EXPECT_EQ(q.joins.size(), 2u);
}

}  // namespace
}  // namespace isum::sql

namespace isum::engine {
namespace {

TEST(SubqueryOptimizer, SemiJoinCapsCardinality) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  // Q4 (index 3) is the EXISTS template: orders semi-join lineitem.
  const workload::QueryInfo& q4 = env.workload->query(3);
  ASSERT_NE(q4.sql.find("EXISTS"), std::string::npos);
  Optimizer opt(env.cost_model.get());
  const PlanSummary plan = opt.Optimize(q4.bound, Configuration());
  // Orders has ~15M rows (sf10), lineitem 60M: without the semi cap the
  // join would multiply to ~2e6+ rows before aggregation; with it, the
  // pre-aggregation cardinality stays at most the filtered orders count.
  double max_rows = 0.0;
  for (const PlannedTable& pt : plan.tables) {
    max_rows = std::max(max_rows, pt.cumulative_rows);
  }
  const catalog::Table* orders = env.catalog->FindTable("orders");
  EXPECT_LE(max_rows, static_cast<double>(orders->row_count()));
}

TEST(SubqueryOptimizer, WholeWorkloadStillBindsAndCosts) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 2;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  EXPECT_EQ(env.workload->size(), 44u);  // no template failed
  for (size_t i = 0; i < env.workload->size(); ++i) {
    EXPECT_GT(env.workload->query(i).base_cost, 0.0);
  }
}

}  // namespace
}  // namespace isum::engine

namespace isum::exec {
namespace {

TEST(SubqueryExecutor, SemiAndAntiSemantics) {
  catalog::Catalog cat;
  catalog::SchemaBuilder b(&cat);
  b.Table("outer_t", 1'000).Key("ok", catalog::ColumnType::kInt);
  b.Table("inner_t", 500)
      .Key("ik", catalog::ColumnType::kInt)
      .Col("ofk", catalog::ColumnType::kInt);
  stats::StatsManager stats(&cat);
  stats::DataGenerator dg;
  Rng rng(3);
  {
    // inner.ofk hits only the first half of outer keys.
    stats::ColumnDataSpec spec;
    spec.distinct = 500;
    spec.domain_min = 1;
    spec.domain_max = 500;
    const catalog::ColumnId id = cat.ResolveColumn("inner_t", "ofk");
    stats.SetStats(id, dg.Generate(spec, 500, rng));
  }
  engine::CostModel cm(&cat, &stats);

  auto bind = [&](const char* sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    sql::Binder binder(&cat, &stats);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(bound).value();
  };

  Database db(&cat, &stats);
  db.MaterializeAll(10'000, 3);
  Executor executor(&db);
  engine::Optimizer opt(&cm);

  const sql::BoundQuery semi = bind(
      "SELECT ok FROM outer_t WHERE EXISTS (SELECT * FROM inner_t WHERE "
      "inner_t.ofk = outer_t.ok)");
  const sql::BoundQuery anti = bind(
      "SELECT ok FROM outer_t WHERE NOT EXISTS (SELECT * FROM inner_t WHERE "
      "inner_t.ofk = outer_t.ok)");
  const ExecutionResult semi_run =
      executor.Execute(semi, opt.Optimize(semi, engine::Configuration()));
  const ExecutionResult anti_run =
      executor.Execute(anti, opt.Optimize(anti, engine::Configuration()));
  // Semi + anti partition the outer table.
  EXPECT_DOUBLE_EQ(semi_run.output_rows + anti_run.output_rows, 1000.0);
  // Semi output can't exceed the outer cardinality nor the number of
  // distinct inner FK values.
  EXPECT_LE(semi_run.output_rows, 500.0);
  EXPECT_GT(semi_run.output_rows, 0.0);
}

}  // namespace
}  // namespace isum::exec
