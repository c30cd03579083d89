// Unit tests for src/engine: index model, configurations, cost model
// properties, optimizer plan choices, and the what-if API.

#include <gtest/gtest.h>

#include <cstring>

#include "catalog/schema_builder.h"
#include "common/string_util.h"
#include "engine/what_if.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats/data_generator.h"

namespace isum::engine {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : stats_(&cat_), cost_model_(&cat_, &stats_) {
    catalog::SchemaBuilder b(&cat_);
    b.Table("big", 10'000'000)
        .Key("id", catalog::ColumnType::kInt)
        .Col("fk", catalog::ColumnType::kInt)
        .Col("v", catalog::ColumnType::kInt)
        .Col("w", catalog::ColumnType::kDecimal)
        .Col("cat", catalog::ColumnType::kInt);
    b.Table("small", 10'000)
        .Key("sid", catalog::ColumnType::kInt)
        .Col("attr", catalog::ColumnType::kInt);

    stats::DataGenerator dg;
    Rng rng(1);
    auto set = [&](const char* t, const char* c, stats::Distribution d,
                   uint64_t distinct, double lo, double hi) {
      stats::ColumnDataSpec spec;
      spec.distribution = d;
      spec.distinct = distinct;
      spec.domain_min = lo;
      spec.domain_max = hi;
      const catalog::ColumnId id = cat_.ResolveColumn(t, c);
      stats_.SetStats(id,
                      dg.Generate(spec, cat_.table(id.table).row_count(), rng));
    };
    auto key = [&](const char* t, const char* c) {
      stats::ColumnDataSpec spec;
      spec.distribution = stats::Distribution::kKey;
      const catalog::ColumnId id = cat_.ResolveColumn(t, c);
      stats_.SetStats(id,
                      dg.Generate(spec, cat_.table(id.table).row_count(), rng));
    };
    key("big", "id");
    set("big", "fk", stats::Distribution::kUniform, 10'000, 1, 10'000);
    set("big", "v", stats::Distribution::kUniform, 1'000'000, 0, 1'000'000);
    set("big", "w", stats::Distribution::kUniform, 100'000, 0, 10'000);
    set("big", "cat", stats::Distribution::kUniform, 20, 0, 20);
    key("small", "sid");
    set("small", "attr", stats::Distribution::kUniform, 100, 0, 100);
  }

  catalog::ColumnId Col(const char* t, const char* c) {
    return cat_.ResolveColumn(t, c);
  }

  sql::BoundQuery Bind(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    sql::Binder binder(&cat_, &stats_);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(bound).value();
  }

  catalog::Catalog cat_;
  stats::StatsManager stats_;
  CostModel cost_model_;
};

// --- Index model. ---

TEST_F(EngineTest, IndexCanonicalizesIncludes) {
  Index a(0, {Col("big", "v")}, {Col("big", "w"), Col("big", "cat")});
  Index b(0, {Col("big", "v")}, {Col("big", "cat"), Col("big", "w")});
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::hash<Index>()(a), std::hash<Index>()(b));
  // Include duplicates of keys are dropped.
  Index c(0, {Col("big", "v")}, {Col("big", "v"), Col("big", "w")});
  EXPECT_EQ(c.include_columns().size(), 1u);
}

TEST_F(EngineTest, IndexKeyOrderMatters) {
  Index a(0, {Col("big", "v"), Col("big", "w")});
  Index b(0, {Col("big", "w"), Col("big", "v")});
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());
}

TEST_F(EngineTest, IndexSizeGrowsWithColumns) {
  Index narrow(0, {Col("big", "v")});
  Index wide(0, {Col("big", "v")}, {Col("big", "w"), Col("big", "cat")});
  EXPECT_GT(wide.SizeBytes(cat_), narrow.SizeBytes(cat_));
  EXPECT_GE(narrow.HeightLevels(cat_), 2);  // 10M rows is multi-level
}

TEST_F(EngineTest, IndexContainsColumn) {
  Index index(0, {Col("big", "v")}, {Col("big", "w")});
  EXPECT_TRUE(index.ContainsColumn(Col("big", "v")));
  EXPECT_TRUE(index.ContainsColumn(Col("big", "w")));
  EXPECT_FALSE(index.ContainsColumn(Col("big", "cat")));
}

// --- Configuration. ---

TEST_F(EngineTest, ConfigurationDeduplicates) {
  Configuration config;
  Index index(0, {Col("big", "v")});
  EXPECT_TRUE(config.Add(index));
  EXPECT_FALSE(config.Add(index));
  EXPECT_EQ(config.size(), 1u);
  EXPECT_TRUE(config.Remove(index));
  EXPECT_TRUE(config.empty());
}

TEST_F(EngineTest, ConfigurationKeepsInsertionOrder) {
  const catalog::TableId big = cat_.FindTable("big")->id();
  Index i1(big, {Col("big", "v")});
  Index i2(cat_.FindTable("small")->id(), {Col("small", "attr")});
  Index i3(big, {Col("big", "w")});
  Configuration config;
  config.Add(i1);
  config.Add(i2);
  config.Add(i3);
  EXPECT_EQ(config.indexes(), (std::vector<Index>{i1, i2, i3}));
  const std::vector<const Index*> on_big = config.IndexesOnTable(big);
  ASSERT_EQ(on_big.size(), 2u);
  EXPECT_EQ(*on_big[0], i1);
  EXPECT_EQ(*on_big[1], i3);
}

TEST_F(EngineTest, IndexesOnTableFilters) {
  Configuration config;
  config.Add(Index(cat_.FindTable("big")->id(), {Col("big", "v")}));
  config.Add(Index(cat_.FindTable("small")->id(), {Col("small", "attr")}));
  EXPECT_EQ(config.IndexesOnTable(cat_.FindTable("big")->id()).size(), 1u);
}

// --- Cost model properties. ---

TEST_F(EngineTest, SeekBeatsScanForSelectivePredicate) {
  sql::BoundQuery q = Bind("SELECT v FROM big WHERE v BETWEEN 100 AND 200");
  Configuration config;
  config.Add(Index(cat_.FindTable("big")->id(), {Col("big", "v")}));
  const AccessPath path = cost_model_.BestAccessPath(
      cat_.FindTable("big")->id(), q.filters, q.ReferencedColumns(), {}, config);
  EXPECT_NE(path.index, nullptr);
  EXPECT_LT(path.cost, cost_model_.FullScanCost(cat_.FindTable("big")->id()));
}

TEST_F(EngineTest, ScanWinsForUnselectivePredicate) {
  sql::BoundQuery q = Bind("SELECT v, w, cat FROM big WHERE v > 100");
  Configuration config;
  config.Add(Index(cat_.FindTable("big")->id(), {Col("big", "v")}));
  const AccessPath path = cost_model_.BestAccessPath(
      cat_.FindTable("big")->id(), q.filters, q.ReferencedColumns(), {}, config);
  EXPECT_EQ(path.index, nullptr);  // fetching ~all rows via lookups is worse
}

TEST_F(EngineTest, CoveringSeekCheaperThanNonCovering) {
  sql::BoundQuery q =
      Bind("SELECT w FROM big WHERE v BETWEEN 0 AND 20000");
  const catalog::TableId big = cat_.FindTable("big")->id();
  Configuration key_only;
  key_only.Add(Index(big, {Col("big", "v")}));
  Configuration covering;
  covering.Add(Index(big, {Col("big", "v")}, {Col("big", "w")}));
  const AccessPath p1 = cost_model_.BestAccessPath(
      big, q.filters, q.ReferencedColumns(), {}, key_only);
  const AccessPath p2 = cost_model_.BestAccessPath(
      big, q.filters, q.ReferencedColumns(), {}, covering);
  EXPECT_TRUE(p2.covering);
  EXPECT_LT(p2.cost, p1.cost);
}

TEST_F(EngineTest, SeekCostMonotonicInSelectivity) {
  const catalog::TableId big = cat_.FindTable("big")->id();
  Configuration config;
  config.Add(Index(big, {Col("big", "v")}));
  double prev_cost = 0.0;
  for (double width : {100.0, 1000.0, 10000.0, 100000.0}) {
    sql::BoundQuery q = Bind(StrFormat(
        "SELECT v FROM big WHERE v BETWEEN 0 AND %.0f", width));
    const AccessPath path = cost_model_.BestAccessPath(
        big, q.filters, q.ReferencedColumns(), {}, config);
    EXPECT_GE(path.cost, prev_cost);
    prev_cost = path.cost;
  }
}

TEST_F(EngineTest, MultiColumnSeekPrefixMatching) {
  const catalog::TableId big = cat_.FindTable("big")->id();
  sql::BoundQuery q =
      Bind("SELECT cat FROM big WHERE cat = 5 AND v BETWEEN 0 AND 1000");
  Configuration config;
  config.Add(Index(big, {Col("big", "cat"), Col("big", "v")}));
  const AccessPath path = cost_model_.BestAccessPath(
      big, q.filters, q.ReferencedColumns(), {}, config);
  ASSERT_NE(path.index, nullptr);
  // Both predicates participate: selectivity ~ (1/20) * small range.
  EXPECT_LT(path.seek_selectivity, 0.06);
}

TEST_F(EngineTest, RangeColumnStopsPrefix) {
  const catalog::TableId big = cat_.FindTable("big")->id();
  // Index (v, cat): v range match consumes the prefix; cat can't extend it.
  sql::BoundQuery q =
      Bind("SELECT cat FROM big WHERE v BETWEEN 0 AND 1000 AND cat = 5");
  Configuration config;
  config.Add(Index(big, {Col("big", "v"), Col("big", "cat")}));
  const AccessPath path = cost_model_.BestAccessPath(
      big, q.filters, q.ReferencedColumns(), {}, config);
  ASSERT_NE(path.index, nullptr);
  sql::BoundQuery q_v = Bind("SELECT cat FROM big WHERE v BETWEEN 0 AND 1000");
  const AccessPath path_v = cost_model_.BestAccessPath(
      big, q_v.filters, q_v.ReferencedColumns(), {}, config);
  EXPECT_NEAR(path.seek_selectivity, path_v.seek_selectivity, 1e-9);
}

TEST_F(EngineTest, SortCostTopNCheaper) {
  EXPECT_LT(cost_model_.SortCost(1e6, 10), cost_model_.SortCost(1e6, std::nullopt));
  EXPECT_EQ(cost_model_.SortCost(1.0, std::nullopt), 0.0);
}

TEST_F(EngineTest, OrderProvidedByIndexDetected) {
  const catalog::TableId big = cat_.FindTable("big")->id();
  sql::BoundQuery q = Bind("SELECT v FROM big ORDER BY v");
  Configuration config;
  config.Add(Index(big, {Col("big", "v")}));
  const AccessPath path = cost_model_.BestAccessPath(
      big, q.filters, q.ReferencedColumns(), {Col("big", "v")}, config);
  EXPECT_TRUE(path.provides_order);
}

TEST_F(EngineTest, OrderAfterEqualityPrefix) {
  const catalog::TableId big = cat_.FindTable("big")->id();
  sql::BoundQuery q = Bind("SELECT v FROM big WHERE cat = 3 ORDER BY v");
  Configuration config;
  config.Add(Index(big, {Col("big", "cat"), Col("big", "v")}));
  const AccessPath path = cost_model_.BestAccessPath(
      big, q.filters, q.ReferencedColumns(), {Col("big", "v")}, config);
  EXPECT_TRUE(path.provides_order);
}

// --- Optimizer. ---

TEST_F(EngineTest, AddingIndexNeverIncreasesPlanCost) {
  Optimizer opt(&cost_model_);
  const std::vector<std::string> queries = {
      "SELECT v FROM big WHERE v BETWEEN 0 AND 500",
      "SELECT cat, COUNT(*) FROM big GROUP BY cat",
      "SELECT b.v FROM big b, small s WHERE b.fk = s.sid AND s.attr = 3",
      "SELECT w FROM big WHERE cat = 7 ORDER BY w LIMIT 10",
  };
  const catalog::TableId big = cat_.FindTable("big")->id();
  std::vector<Index> indexes = {
      Index(big, {Col("big", "v")}),
      Index(big, {Col("big", "cat"), Col("big", "w")}),
      Index(big, {Col("big", "fk")}, {Col("big", "v")}),
  };
  for (const std::string& sql : queries) {
    sql::BoundQuery q = Bind(sql);
    Configuration config;
    double prev = opt.Cost(q, config);
    for (const Index& index : indexes) {
      config.Add(index);
      const double cost = opt.Cost(q, config);
      EXPECT_LE(cost, prev + 1e-6) << sql;
      prev = cost;
    }
  }
}

TEST_F(EngineTest, JoinPrefersConnectedOrder) {
  sql::BoundQuery q = Bind(
      "SELECT b.v FROM big b, small s WHERE b.fk = s.sid AND s.attr = 3");
  Optimizer opt(&cost_model_);
  PlanSummary plan = opt.Optimize(q, Configuration());
  ASSERT_EQ(plan.tables.size(), 2u);
  EXPECT_NE(plan.tables[1].join_method, JoinMethod::kCrossJoin);
}

TEST_F(EngineTest, IndexNestedLoopChosenWithJoinIndex) {
  sql::BoundQuery q = Bind(
      "SELECT s.attr FROM big b, small s WHERE b.fk = s.sid AND "
      "b.v BETWEEN 0 AND 100");
  const catalog::TableId small = cat_.FindTable("small")->id();
  const catalog::TableId big = cat_.FindTable("big")->id();
  Configuration config;
  config.Add(Index(big, {Col("big", "v")}, {Col("big", "fk")}));
  config.Add(Index(small, {Col("small", "sid")}, {Col("small", "attr")}));
  Optimizer opt(&cost_model_);
  PlanSummary plan = opt.Optimize(q, config);
  ASSERT_EQ(plan.tables.size(), 2u);
  // Highly selective driver + join index on the inner: INL should win.
  EXPECT_EQ(plan.tables[1].join_method, JoinMethod::kIndexNestedLoop);
  EXPECT_LT(plan.total_cost, opt.Cost(q, Configuration()));
}

TEST_F(EngineTest, StreamAggregateWhenIndexProvidesOrder) {
  sql::BoundQuery q = Bind("SELECT cat, COUNT(*) FROM big GROUP BY cat");
  const catalog::TableId big = cat_.FindTable("big")->id();
  Configuration config;
  config.Add(Index(big, {Col("big", "cat")}));
  Optimizer opt(&cost_model_);
  PlanSummary with = opt.Optimize(q, config);
  EXPECT_TRUE(with.stream_aggregate);
  PlanSummary without = opt.Optimize(q, Configuration());
  EXPECT_FALSE(without.stream_aggregate);
  EXPECT_LT(with.total_cost, without.total_cost);
}

TEST_F(EngineTest, SortAvoidedBySingleTableIndexOrder) {
  sql::BoundQuery q = Bind("SELECT v FROM big ORDER BY v");
  const catalog::TableId big = cat_.FindTable("big")->id();
  Configuration config;
  config.Add(Index(big, {Col("big", "v")}));
  Optimizer opt(&cost_model_);
  PlanSummary with = opt.Optimize(q, config);
  EXPECT_TRUE(with.sort_avoided_by_index);
  EXPECT_FALSE(with.sort_needed);
  PlanSummary without = opt.Optimize(q, Configuration());
  EXPECT_TRUE(without.sort_needed);
}

TEST_F(EngineTest, OutputRowsRespectLimit) {
  sql::BoundQuery q = Bind("SELECT v FROM big WHERE v > 0 ORDER BY v LIMIT 7");
  Optimizer opt(&cost_model_);
  PlanSummary plan = opt.Optimize(q, Configuration());
  EXPECT_LE(plan.output_rows, 7.0);
}

TEST_F(EngineTest, ExplainMentionsChosenStructures) {
  sql::BoundQuery q = Bind(
      "SELECT b.cat, COUNT(*) FROM big b, small s WHERE b.fk = s.sid "
      "GROUP BY b.cat");
  Optimizer opt(&cost_model_);
  const std::string text = opt.Optimize(q, Configuration()).Explain(cat_);
  EXPECT_NE(text.find("hash join"), std::string::npos);
  EXPECT_NE(text.find("aggregate"), std::string::npos);
}

// The optimizer reads a configuration only through the indexes on the
// query's own tables, in configuration order; Optimizer::CanUse narrows
// that further (relevance_differential_test.cc), and greedy enumeration's
// delta costing (advisor/enumerator.cc) carries costs over on that basis.

TEST_F(EngineTest, OptimizerIgnoresIndexesOnUnreferencedTables) {
  sql::BoundQuery q = Bind("SELECT v FROM big WHERE v < 100");
  const Optimizer optimizer(&cost_model_);
  Configuration config;
  config.Add(Index(cat_.FindTable("big")->id(), {Col("big", "v")}));
  const double before = optimizer.Cost(q, config);
  config.Add(Index(cat_.FindTable("small")->id(), {Col("small", "attr")}));
  const double after = optimizer.Cost(q, config);
  EXPECT_EQ(std::memcmp(&before, &after, sizeof(double)), 0);
}

TEST_F(EngineTest, OptimizerSeesIndexesOnReferencedTables) {
  sql::BoundQuery q = Bind(
      "SELECT b.v FROM big b, small s WHERE b.fk = s.sid AND s.attr = 3");
  const Optimizer optimizer(&cost_model_);
  Configuration config;
  config.Add(Index(cat_.FindTable("big")->id(), {Col("big", "fk")}));
  const double before = optimizer.Cost(q, config);
  config.Add(Index(cat_.FindTable("small")->id(), {Col("small", "attr")},
                   {Col("small", "sid")}));
  EXPECT_LT(optimizer.Cost(q, config), before);
}

TEST_F(EngineTest, OptimizerTieBreakFollowsConfigurationOrder) {
  // Two same-sized indexes led by the filtered key cost the same (neither
  // covers v), so BestAccessPath keeps whichever it sees first: the plan
  // depends on configuration order.
  sql::BoundQuery q = Bind("SELECT v FROM big WHERE id = 5");
  const Index by_id_fk(cat_.FindTable("big")->id(),
                       {Col("big", "id"), Col("big", "fk")});
  const Index by_id_cat(cat_.FindTable("big")->id(),
                        {Col("big", "id"), Col("big", "cat")});
  // AccessPath::index points into the configuration: keep both alive.
  const Configuration fk_first({by_id_fk, by_id_cat});
  const Configuration cat_first({by_id_cat, by_id_fk});
  const Optimizer optimizer(&cost_model_);
  const PlanSummary first = optimizer.Optimize(q, fk_first);
  const PlanSummary second = optimizer.Optimize(q, cat_first);
  ASSERT_EQ(first.tables.size(), 1u);
  ASSERT_EQ(second.tables.size(), 1u);
  ASSERT_NE(first.tables[0].access.index, nullptr);
  ASSERT_NE(second.tables[0].access.index, nullptr);
  EXPECT_EQ(*first.tables[0].access.index, by_id_fk);
  EXPECT_EQ(*second.tables[0].access.index, by_id_cat);
}

TEST_F(EngineTest, WhatIfMatchesOptimizer) {
  sql::BoundQuery q = Bind("SELECT cat, COUNT(*) FROM big GROUP BY cat");
  WhatIfOptimizer what_if(&cost_model_);
  Optimizer opt(&cost_model_);
  EXPECT_DOUBLE_EQ(what_if.Cost(q, Configuration()),
                   opt.Cost(q, Configuration()));
}

}  // namespace
}  // namespace isum::engine
