// Tests for the JSONL column-statistics loader.

#include <gtest/gtest.h>

#include "catalog/schema_builder.h"
#include "stats/stats_loader.h"

namespace isum::stats {
namespace {

class StatsLoaderTest : public ::testing::Test {
 protected:
  StatsLoaderTest() : stats_(&cat_) {
    catalog::SchemaBuilder b(&cat_);
    b.Table("orders", 1'000'000)
        .Key("id", catalog::ColumnType::kInt)
        .Col("odate", catalog::ColumnType::kDate)
        .Col("status", catalog::ColumnType::kChar, 1)
        .Col("max", catalog::ColumnType::kInt)
        .Col("nulls", catalog::ColumnType::kInt);
  }

  catalog::Catalog cat_;
  StatsManager stats_;
};

TEST_F(StatsLoaderTest, LoadsUniformAndZipf) {
  const std::string jsonl =
      "{\"table\": \"orders\", \"column\": \"odate\", \"distinct\": 2000, "
      "\"min\": 18000, \"max\": 20000}\n"
      "{\"table\": \"orders\", \"column\": \"status\", \"distinct\": 4, "
      "\"min\": 0, \"max\": 4, \"distribution\": \"zipf\", \"skew\": 1.5}\n";
  auto loaded = LoadColumnStats(jsonl, cat_, &stats_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2);

  const catalog::ColumnId odate = cat_.ResolveColumn("orders", "odate");
  EXPECT_TRUE(stats_.HasStats(odate));
  // Uniform range selectivity ~ proportional.
  EXPECT_NEAR(stats_.SelectivityRange(odate, 18000.0, 19000.0), 0.5, 0.06);
  EXPECT_NEAR(stats_.DistinctCount(odate), 2000.0, 600.0);

  // Zipf: the hottest status value is much more frequent than 1/4.
  const catalog::ColumnId status = cat_.ResolveColumn("orders", "status");
  double max_eq = 0.0;
  for (int v = 0; v <= 4; ++v) {
    max_eq = std::max(max_eq, stats_.SelectivityEquals(status, v));
  }
  EXPECT_GT(max_eq, 0.4);
}

TEST_F(StatsLoaderTest, DefaultsApplyWhenKeysOmitted) {
  auto loaded = LoadColumnStats(
      "{\"table\": \"orders\", \"column\": \"odate\", \"distinct\": 10, "
      "\"min\": 0, \"max\": 10}",
      cat_, &stats_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1);
}

TEST_F(StatsLoaderTest, ColumnNamedLikeAKeyReadsTheKeysValue) {
  // The column's name is a value; only the "max" key sets domain_max.
  auto loaded = LoadColumnStats(
      "{\"table\":\"orders\",\"column\":\"max\",\"distinct\":10,"
      "\"min\":0,\"max\":9}",
      cat_, &stats_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(stats_.GetStats(cat_.ResolveColumn("orders", "max")).max_value,
            9.0);
}

TEST_F(StatsLoaderTest, NullsColumnWithoutNullsKeyKeepsTheDefault) {
  auto loaded = LoadColumnStats(
      "{\"table\":\"orders\",\"column\":\"nulls\",\"distinct\":10,"
      "\"min\":0,\"max\":9}",
      cat_, &stats_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(
      stats_.GetStats(cat_.ResolveColumn("orders", "nulls")).null_fraction,
      0.0);
}

TEST_F(StatsLoaderTest, ErrorsAreLoud) {
  EXPECT_FALSE(LoadColumnStats("{\"table\": \"nope\", \"column\": \"x\", "
                               "\"distinct\": 1, \"min\": 0, \"max\": 1}",
                               cat_, &stats_)
                   .ok());
  EXPECT_FALSE(LoadColumnStats("{\"table\": \"orders\", \"column\": \"odate\", "
                               "\"distinct\": 1, \"min\": 5, \"max\": 1}",
                               cat_, &stats_)
                   .ok());
  EXPECT_FALSE(LoadColumnStats("{\"table\": \"orders\", \"column\": \"odate\", "
                               "\"distinct\": 1, \"min\": 0, \"max\": 1, "
                               "\"distribution\": \"pareto\"}",
                               cat_, &stats_)
                   .ok());
  EXPECT_FALSE(LoadColumnStats("{\"column\": \"odate\"}", cat_, &stats_).ok());
}

TEST_F(StatsLoaderTest, DeterministicPerSeed) {
  const std::string line =
      "{\"table\": \"orders\", \"column\": \"odate\", \"distinct\": 500, "
      "\"min\": 0, \"max\": 1000}";
  StatsManager a(&cat_), b(&cat_);
  ASSERT_TRUE(LoadColumnStats(line, cat_, &a, 7).ok());
  ASSERT_TRUE(LoadColumnStats(line, cat_, &b, 7).ok());
  const catalog::ColumnId odate = cat_.ResolveColumn("orders", "odate");
  EXPECT_DOUBLE_EQ(a.DistinctCount(odate), b.DistinctCount(odate));
  EXPECT_DOUBLE_EQ(a.ValueAtQuantile(odate, 0.5), b.ValueAtQuantile(odate, 0.5));
}

}  // namespace
}  // namespace isum::stats
