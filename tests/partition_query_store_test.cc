// Tests for the partitioning-advisor extension and Query-Store persistence.

#include <gtest/gtest.h>

#include <optional>

#include "common/jsonl.h"
#include "partition/partition_advisor.h"
#include "workload/query_store.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 2;
    env_ = workload::MakeTpch(gen);
    for (size_t i = 0; i < env_->workload->size(); ++i) {
      queries_.push_back({&env_->workload->query(i).bound, 1.0});
    }
  }

  std::optional<workload::GeneratedWorkload> env_;
  std::vector<advisor::WeightedQuery> queries_;
};

TEST_F(PartitionTest, EmptySchemeIsBaseCost) {
  partition::PartitioningScheme empty;
  for (size_t i = 0; i < 5; ++i) {
    const double base = env_->workload->query(i).base_cost;
    EXPECT_NEAR(partition::CostWithPartitioning(env_->workload->query(i).bound,
                                                empty, *env_->cost_model),
                base, base * 1e-9);
  }
}

TEST_F(PartitionTest, PruningReducesCostOnlyWithMatchingFilter) {
  // Partition lineitem on l_shipdate: date-filtered queries get cheaper,
  // queries not touching lineitem stay identical.
  partition::PartitioningScheme scheme;
  const catalog::ColumnId shipdate =
      env_->catalog->ResolveColumn("lineitem", "l_shipdate");
  scheme.columns[shipdate.table] = shipdate;

  int cheaper = 0;
  for (size_t i = 0; i < env_->workload->size(); ++i) {
    const sql::BoundQuery& q = env_->workload->query(i).bound;
    const double base = env_->workload->query(i).base_cost;
    const double with =
        partition::CostWithPartitioning(q, scheme, *env_->cost_model);
    EXPECT_LE(with, base + 1e-6);
    bool filters_shipdate = false;
    for (const auto& f : q.filters) {
      filters_shipdate |= (f.column == shipdate && f.sargable);
    }
    if (!q.ReferencesTable(shipdate.table) || !filters_shipdate) {
      EXPECT_NEAR(with, base, base * 1e-9) << env_->workload->query(i).sql;
    } else if (with < base * 0.999) {
      ++cheaper;
    }
  }
  EXPECT_GT(cheaper, 3);
}

TEST_F(PartitionTest, PruningFloorIsOnePartition) {
  partition::PartitioningScheme scheme;
  scheme.partitions_per_table = 2;  // coarse partitions prune at most 50%
  const catalog::ColumnId shipdate =
      env_->catalog->ResolveColumn("lineitem", "l_shipdate");
  scheme.columns[shipdate.table] = shipdate;
  partition::PartitioningScheme fine = scheme;
  fine.partitions_per_table = 1024;
  for (size_t i = 0; i < env_->workload->size(); ++i) {
    const sql::BoundQuery& q = env_->workload->query(i).bound;
    EXPECT_LE(partition::CostWithPartitioning(q, fine, *env_->cost_model),
              partition::CostWithPartitioning(q, scheme, *env_->cost_model) +
                  1e-6);
  }
}

TEST_F(PartitionTest, AdvisorImprovesAndRespectsLimit) {
  partition::PartitionAdvisor advisor(env_->cost_model.get());
  partition::PartitionTuningOptions options;
  options.max_partitioned_tables = 3;
  const partition::PartitionTuningResult result =
      advisor.Tune(queries_, options);
  EXPECT_LE(result.scheme.columns.size(), 3u);
  EXPECT_GT(result.scheme.columns.size(), 0u);
  EXPECT_LT(result.final_cost, result.initial_cost);
  // One partitioning column per table by construction.
  for (const auto& [table, column] : result.scheme.columns) {
    EXPECT_EQ(column.table, table);
  }
}

TEST_F(PartitionTest, WeightsSteerTheChoice) {
  // Weighting only date-filtered lineitem queries should make lineitem's
  // date column the first pick.
  std::vector<advisor::WeightedQuery> skewed = queries_;
  const catalog::ColumnId shipdate =
      env_->catalog->ResolveColumn("lineitem", "l_shipdate");
  for (auto& wq : skewed) {
    wq.weight = 0.001;
    for (const auto& f : wq.query->filters) {
      if (f.column == shipdate) wq.weight = 1000.0;
    }
  }
  partition::PartitionAdvisor advisor(env_->cost_model.get());
  partition::PartitionTuningOptions options;
  options.max_partitioned_tables = 1;
  const auto result = advisor.Tune(skewed, options);
  ASSERT_EQ(result.scheme.columns.size(), 1u);
  EXPECT_EQ(result.scheme.columns.begin()->second, shipdate);
}

// --- Query Store persistence. ---

TEST(QueryStore, JsonEscapeRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te'f\r";
  auto back = JsonUnescape(JsonEscape(nasty));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, nasty);
}

TEST(QueryStore, JsonUnescapeErrors) {
  EXPECT_FALSE(JsonUnescape("dangling\\").ok());
  EXPECT_FALSE(JsonUnescape("\\q").ok());
  EXPECT_FALSE(JsonUnescape("\\u12").ok());
  EXPECT_TRUE(JsonUnescape("\\u0041").ok());
}

TEST(QueryStore, SaveLoadRoundTripPreservesCostsAndTags) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 2;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  const std::string jsonl = workload::SaveQueryStore(*env.workload);

  workload::Workload reloaded(env.workload->env());
  auto loaded = workload::LoadQueryStore(jsonl, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(static_cast<size_t>(*loaded), env.workload->size());
  for (size_t i = 0; i < reloaded.size(); ++i) {
    EXPECT_EQ(reloaded.query(i).sql, env.workload->query(i).sql);
    EXPECT_EQ(reloaded.query(i).base_cost, env.workload->query(i).base_cost);
    EXPECT_EQ(reloaded.query(i).tag, env.workload->query(i).tag);
    EXPECT_EQ(reloaded.query(i).template_hash,
              env.workload->query(i).template_hash);
  }
}

TEST(QueryStore, LoadRejectsMalformedLines) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  gen.max_templates = 1;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  workload::Workload w(env.workload->env());
  EXPECT_FALSE(workload::LoadQueryStore("{\"cost\": 1}", &w).ok());
  EXPECT_FALSE(workload::LoadQueryStore("{\"sql\": \"SELECT\", \"cost\": 1}", &w).ok());
  EXPECT_FALSE(
      workload::LoadQueryStore("{\"sql\": \"SELECT * FROM lineitem\"}", &w).ok());
}

TEST(QueryStore, KeyNamesInsideValuesAreNotKeys) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  gen.max_templates = 1;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  workload::Workload w(env.workload->env());
  // Key order is free and a value may spell another key's name.
  auto loaded = workload::LoadQueryStore(
      "{\"tag\":\"cost\",\"sql\":\"SELECT * FROM lineitem\",\"cost\":5}", &w);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.query(0).tag, "cost");
  EXPECT_EQ(w.query(0).base_cost, 5.0);
  // "tag" as a value is not a tag key: the query loads untagged.
  loaded = workload::LoadQueryStore(
      "{\"sql\":\"SELECT * FROM lineitem\",\"cost\":5,\"note\":\"tag\"}", &w);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(w.query(1).tag, "");
  // A required key that appears only inside a value is still missing.
  EXPECT_FALSE(workload::LoadQueryStore(
                   "{\"sql\":\"SELECT * FROM lineitem\",\"tag\":\"cost\"}", &w)
                   .ok());
}

TEST(QueryStore, BlankLinesIgnored) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  gen.max_templates = 2;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  const std::string jsonl = "\n" + workload::SaveQueryStore(*env.workload) + "\n\n";
  workload::Workload w(env.workload->env());
  auto loaded = workload::LoadQueryStore(jsonl, &w);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 2);
}

}  // namespace
}  // namespace isum
