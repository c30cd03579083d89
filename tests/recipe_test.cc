// Tests for the procedural template machinery (recipe generation +
// instantiation) and the star-schema builder behind TPC-DS/DSB.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/templatizer.h"
#include "workload/generator/star_schema.h"

namespace isum::workload::gen {
namespace {

class RecipeTest : public ::testing::Test {
 protected:
  RecipeTest() : stats_(&catalog_) {
    Rng rng(7);
    graph_ = BuildStarSchema(&catalog_, &stats_, /*scale=*/1.0,
                             /*zipf_skew=*/0.0, rng);
  }

  catalog::Catalog catalog_;
  stats::StatsManager stats_;
  SchemaGraph graph_;
};

TEST_F(RecipeTest, StarSchemaHas24Tables) {
  EXPECT_EQ(catalog_.num_tables(), 24u);
  EXPECT_EQ(graph_.fact_tables.size(), 7u);  // 3 sales, 3 returns, inventory
  EXPECT_FALSE(graph_.edges.empty());
  EXPECT_FALSE(graph_.filterable.empty());
  EXPECT_FALSE(graph_.groupable.empty());
  EXPECT_FALSE(graph_.measures.empty());
}

TEST_F(RecipeTest, GraphReferencesResolveInCatalog) {
  for (const JoinEdge& e : graph_.edges) {
    EXPECT_TRUE(catalog_.ResolveColumn(e.left_table, e.left_column).valid())
        << e.left_table << "." << e.left_column;
    EXPECT_TRUE(catalog_.ResolveColumn(e.right_table, e.right_column).valid())
        << e.right_table << "." << e.right_column;
  }
  for (const auto& fc : graph_.filterable) {
    EXPECT_TRUE(catalog_.ResolveColumn(fc.table, fc.column).valid());
  }
  for (const auto& [t, c] : graph_.measures) {
    EXPECT_TRUE(catalog_.ResolveColumn(t, c).valid());
  }
}

TEST_F(RecipeTest, FactScalingOnlyAffectsFacts) {
  catalog::Catalog big_cat;
  stats::StatsManager big_stats(&big_cat);
  Rng rng(7);
  BuildStarSchema(&big_cat, &big_stats, /*scale=*/2.0, 0.0, rng);
  EXPECT_EQ(big_cat.FindTable("store_sales")->row_count(),
            2 * catalog_.FindTable("store_sales")->row_count());
  EXPECT_EQ(big_cat.FindTable("item")->row_count(),
            catalog_.FindTable("item")->row_count());
}

TEST_F(RecipeTest, GeneratedRecipesAreConnectedAndDistinct) {
  RecipeGenOptions options;
  options.min_joins = 1;
  options.max_joins = 4;
  Rng rng(11);
  const std::vector<TemplateRecipe> recipes =
      GenerateRecipes(graph_, 50, options, rng);
  ASSERT_EQ(recipes.size(), 50u);

  std::set<std::string> names;
  for (const TemplateRecipe& r : recipes) {
    EXPECT_TRUE(names.insert(r.name).second);
    // Join edges connect exactly the recipe's tables: walk reachability.
    ASSERT_FALSE(r.tables.empty());
    std::unordered_set<std::string> reach = {r.tables[0]};
    bool progress = true;
    while (progress) {
      progress = false;
      for (const JoinEdge& e : r.joins) {
        if (reach.contains(e.left_table) && !reach.contains(e.right_table)) {
          reach.insert(e.right_table);
          progress = true;
        }
        if (reach.contains(e.right_table) && !reach.contains(e.left_table)) {
          reach.insert(e.left_table);
          progress = true;
        }
      }
    }
    EXPECT_EQ(reach.size(), r.tables.size()) << r.name;
    // Filters reference participating tables only.
    for (const FilterSlot& f : r.filters) {
      EXPECT_TRUE(std::find(r.tables.begin(), r.tables.end(), f.table) !=
                  r.tables.end());
    }
  }
}

TEST_F(RecipeTest, SingleFactRuleHolds) {
  RecipeGenOptions options;
  options.min_joins = 2;
  options.max_joins = 6;
  Rng rng(13);
  const std::vector<TemplateRecipe> recipes =
      GenerateRecipes(graph_, 40, options, rng);
  const std::set<std::string> facts(graph_.fact_tables.begin(),
                                    graph_.fact_tables.end());
  for (const TemplateRecipe& r : recipes) {
    int fact_count = 0;
    for (const std::string& t : r.tables) fact_count += facts.contains(t);
    EXPECT_LE(fact_count, 1) << r.name;
  }
}

TEST_F(RecipeTest, MultipleFactsAllowedWhenOptedIn) {
  RecipeGenOptions options;
  options.min_joins = 3;
  options.max_joins = 6;
  options.allow_multiple_facts = true;
  Rng rng(13);
  const std::vector<TemplateRecipe> recipes =
      GenerateRecipes(graph_, 40, options, rng);
  const std::set<std::string> facts(graph_.fact_tables.begin(),
                                    graph_.fact_tables.end());
  int multi = 0;
  for (const TemplateRecipe& r : recipes) {
    int fact_count = 0;
    for (const std::string& t : r.tables) fact_count += facts.contains(t);
    multi += (fact_count > 1);
  }
  EXPECT_GT(multi, 0);
}

TEST_F(RecipeTest, ClassKnobsShapeRecipes) {
  Rng rng(17);
  RecipeGenOptions spj;
  spj.aggregate_probability = 0.0;
  for (const TemplateRecipe& r : GenerateRecipes(graph_, 20, spj, rng)) {
    EXPECT_TRUE(r.group_by.empty());
    EXPECT_TRUE(r.aggregates.empty());
  }
  RecipeGenOptions agg;
  agg.aggregate_probability = 1.0;
  for (const TemplateRecipe& r : GenerateRecipes(graph_, 20, agg, rng)) {
    EXPECT_FALSE(r.aggregates.empty());
  }
}

TEST_F(RecipeTest, InstantiationParsesBindsAndHitsSelectivityBand) {
  RecipeGenOptions options;
  options.min_joins = 0;
  options.max_joins = 2;
  Rng rng(19);
  const std::vector<TemplateRecipe> recipes =
      GenerateRecipes(graph_, 15, options, rng);
  sql::Binder binder(&catalog_, &stats_);
  for (const TemplateRecipe& recipe : recipes) {
    Rng inst_rng(23);
    for (int i = 0; i < 3; ++i) {
      const std::string sql =
          InstantiateSql(recipe, catalog_, stats_, inst_rng);
      auto stmt = sql::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString() << "\n" << sql;
      auto bound = binder.Bind(*stmt);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString() << "\n" << sql;
      // Range filters should land within ~an order of magnitude of the
      // recipe's selectivity band (histogram quantiles are approximate).
      for (const auto& f : bound->filters) {
        if (f.op == sql::PredicateOp::kBetween) {
          EXPECT_LT(f.selectivity, 0.98);
        }
      }
    }
  }
}

TEST_F(RecipeTest, InstancesShareTemplateHash) {
  RecipeGenOptions options;
  Rng rng(29);
  const std::vector<TemplateRecipe> recipes =
      GenerateRecipes(graph_, 5, options, rng);
  for (const TemplateRecipe& recipe : recipes) {
    Rng inst_rng(31);
    std::set<uint64_t> hashes;
    for (int i = 0; i < 3; ++i) {
      const std::string sql =
          InstantiateSql(recipe, catalog_, stats_, inst_rng);
      auto stmt = sql::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok());
      hashes.insert(sql::TemplateHash(*stmt));
    }
    EXPECT_EQ(hashes.size(), 1u) << recipe.name;
  }
}

TEST_F(RecipeTest, ZipfSkewChangesFactStats) {
  catalog::Catalog skew_cat;
  stats::StatsManager skew_stats(&skew_cat);
  Rng rng(7);
  BuildStarSchema(&skew_cat, &skew_stats, 1.0, /*zipf_skew=*/1.4, rng);
  // Hot values of a skewed fact attribute have much higher equality
  // selectivity than under the uniform build.
  const catalog::ColumnId uniform_col =
      catalog_.ResolveColumn("store_sales", "ss_quantity");
  const catalog::ColumnId skew_col =
      skew_cat.ResolveColumn("store_sales", "ss_quantity");
  double max_uniform = 0.0, max_skew = 0.0;
  for (int q = 0; q <= 10; ++q) {
    max_uniform = std::max(
        max_uniform, stats_.SelectivityEquals(
                         uniform_col, stats_.ValueAtQuantile(uniform_col, q / 10.0)));
    max_skew = std::max(
        max_skew, skew_stats.SelectivityEquals(
                      skew_col, skew_stats.ValueAtQuantile(skew_col, q / 10.0)));
  }
  EXPECT_GT(max_skew, max_uniform * 2.0);
}

}  // namespace
}  // namespace isum::workload::gen
