// Tests for the anytime (time-budgeted) tuning mode and parser robustness
// against adversarial input.

#include <gtest/gtest.h>

#include <optional>

#include "advisor/advisor.h"
#include "common/rng.h"
#include "sql/parser.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

class AnytimeTest : public ::testing::Test {
 protected:
  AnytimeTest() {
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

TEST_F(AnytimeTest, TinyBudgetReturnsQuicklyAndValid) {
  advisor::TuningOptions options;
  options.max_indexes = 20;
  options.budget = TimeBudget::After(1e-6);  // effectively zero
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult result = advisor.Tune(queries_, options);
  // Must return promptly (well under a second even with slack) and
  // produce an internally consistent (possibly empty) result.
  EXPECT_LT(result.elapsed_seconds, 1.0);
  EXPECT_LE(result.final_cost, result.initial_cost + 1e-9);
}

TEST_F(AnytimeTest, UnlimitedBudgetMatchesDefault) {
  advisor::TuningOptions budgeted;
  budgeted.max_indexes = 8;
  budgeted.budget = TimeBudget::After(3600.0);  // never binds
  advisor::TuningOptions plain;
  plain.max_indexes = 8;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const auto a = advisor.Tune(queries_, budgeted);
  const auto b = advisor.Tune(queries_, plain);
  EXPECT_EQ(a.configuration.indexes(), b.configuration.indexes());
}

TEST_F(AnytimeTest, LargerBudgetNeverSmallerConfiguration) {
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  advisor::TuningOptions tiny;
  tiny.max_indexes = 20;
  tiny.budget = TimeBudget::After(1e-6);
  advisor::TuningOptions big;
  big.max_indexes = 20;
  big.budget = TimeBudget::After(3600.0);
  const auto small_result = advisor.Tune(queries_, tiny);
  const auto big_result = advisor.Tune(queries_, big);
  EXPECT_LE(small_result.configuration.size(), big_result.configuration.size());
  EXPECT_GE(small_result.final_cost, big_result.final_cost - 1e-9);
}

// --- Parser robustness: random garbage must produce Status errors (or
// parse), never crashes or hangs. ---

TEST(ParserRobustness, RandomBytesNeverCrash) {
  Rng rng(99);
  const char alphabet[] =
      "SELECT FROM WHERE GROUP BY ORDER AND OR NOT IN LIKE ( ) , . ; = < > "
      "'abc' 1 2.5 x y_z *";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string input;
    const int len = static_cast<int>(rng.NextUint64(60));
    for (int i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.NextUint64(sizeof(alphabet) - 1)]);
    }
    auto result = sql::ParseSelect(input);  // must not crash
    if (result.ok()) {
      EXPECT_FALSE(result->from.empty());
    }
  }
}

TEST(ParserRobustness, TokenSoupNeverCrashes) {
  Rng rng(7);
  const std::vector<std::string> tokens = {
      "SELECT", "FROM", "WHERE",  "GROUP",   "BY",   "ORDER", "LIMIT",
      "AND",    "OR",   "NOT",    "BETWEEN", "IN",   "LIKE",  "IS",
      "NULL",   "AS",   "JOIN",   "ON",      "(",    ")",     ",",
      "*",      "=",    "<",      ">=",      "<>",   "+",     "-",
      "/",      "t",    "u",      "a",       "b",    "'s'",   "42",
      "3.14",   ".",    ";",      "COUNT",   "DESC"};
  for (int trial = 0; trial < 2000; ++trial) {
    std::string input;
    const int len = 1 + static_cast<int>(rng.NextUint64(25));
    for (int i = 0; i < len; ++i) {
      input += tokens[rng.NextUint64(tokens.size())];
      input += " ";
    }
    auto result = sql::ParseSelect(input);
    (void)result;  // any Status is fine; crashing/hanging is not
  }
}

TEST(ParserRobustness, DeeplyNestedExpressionsBounded) {
  // Nesting within the parser's documented depth limit must parse fine.
  std::string sql = "SELECT ";
  for (int i = 0; i < 150; ++i) sql += "(";
  sql += "1";
  for (int i = 0; i < 150; ++i) sql += ")";
  sql += " FROM t";
  auto result = sql::ParseSelect(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(ParserRobustness, ExcessiveNestingRejectedNotCrashed) {
  // Beyond the limit the parser must return a clean ParseError instead of
  // recursing until the stack overflows (which ASan's larger frames would
  // otherwise turn into a crash long before the default build notices).
  std::string sql = "SELECT ";
  for (int i = 0; i < 5000; ++i) sql += "(";
  sql += "1";
  for (int i = 0; i < 5000; ++i) sql += ")";
  sql += " FROM t";
  auto result = sql::ParseSelect(sql);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("nesting"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace isum
