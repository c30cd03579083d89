// Tests for the evaluation pipeline and reporting helpers.

#include <gtest/gtest.h>

#include <optional>

#include "eval/pipeline.h"
#include "eval/reporting.h"
#include "workload/workload_factory.h"

namespace isum::eval {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 1;
    env_ = workload::MakeTpch(gen);
  }

  const workload::Workload& W() { return *env_->workload; }

  std::optional<workload::GeneratedWorkload> env_;
};

TEST_F(EvalTest, EmptyConfigurationGivesZeroImprovement) {
  EXPECT_DOUBLE_EQ(WorkloadImprovementPercent(W(), engine::Configuration()),
                   0.0);
}

TEST_F(EvalTest, ImprovementMonotoneUnderSupersetConfigs) {
  // Our optimizer picks the min-cost plan over a larger search space, so a
  // superset configuration can never be worse.
  advisor::TuningOptions options;
  options.max_indexes = 6;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  std::vector<advisor::WeightedQuery> queries;
  for (size_t i = 0; i < W().size(); ++i) {
    queries.push_back({&W().query(i).bound, 1.0});
  }
  const auto result = advisor.Tune(queries, options);
  engine::Configuration partial;
  double prev = 0.0;
  for (const engine::Index& index : result.configuration.indexes()) {
    partial.Add(index);
    const double imp = WorkloadImprovementPercent(W(), partial);
    EXPECT_GE(imp, prev - 1e-9);
    prev = imp;
  }
}

TEST_F(EvalTest, RunPipelineFillsAllFields) {
  core::Isum isum(&W());
  const auto compressed = isum.Compress(6);
  advisor::TuningOptions options;
  options.max_indexes = 8;
  EvaluationResult r =
      RunPipeline(W(), compressed, MakeDtaTuner(W(), options), "ISUM");
  EXPECT_EQ(r.algorithm, "ISUM");
  EXPECT_EQ(r.k, 6u);
  EXPECT_GT(r.improvement_percent, 0.0);
  EXPECT_GT(r.tuning.optimizer_calls, 0u);
  EXPECT_GE(r.tuning_seconds, 0.0);
  // The registry delta captured by the pipeline must agree exactly with the
  // what-if optimizer's own accessors for this single-threaded run.
  EXPECT_EQ(r.metrics.CounterValue("whatif.optimizer_calls"),
            r.tuning.optimizer_calls);
  EXPECT_EQ(r.metrics.CounterValue("whatif.cache_hits"),
            r.tuning.cache_hits);
  EXPECT_EQ(r.metrics.HistogramCount("whatif.optimize_nanos"),
            r.tuning.optimizer_calls);
}

TEST_F(EvalTest, DexterTunerWorksThroughPipeline) {
  core::Isum isum(&W());
  const auto compressed = isum.Compress(6);
  advisor::DexterOptions options;
  EvaluationResult r =
      RunPipeline(W(), compressed, MakeDexterTuner(W(), options), "ISUM");
  EXPECT_GE(r.improvement_percent, 0.0);
}

TEST_F(EvalTest, IsumCompressorAdapterMatchesFacade) {
  IsumCompressor adapter;
  core::Isum direct(&W());
  const auto a = adapter.Compress(W(), 5);
  const auto b = direct.Compress(5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].query_index, b.entries[i].query_index);
  }
  EXPECT_EQ(adapter.name(), "ISUM");
  EXPECT_EQ(IsumCompressor(core::IsumOptions::StatsVariant(), "ISUM-S").name(),
            "ISUM-S");
}

TEST(Reporting, TableAlignedOutput) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow("b", {2.5});
  const std::string text = t.ToString(false);
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("2.50"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Reporting, TableCsvOutput) {
  Table t({"x", "y"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToString(true), "x,y\n1,2\n");
}

TEST(Reporting, RowsPaddedToHeaderCount) {
  Table t({"a", "b", "c"});
  t.AddRow({"only-one"});
  EXPECT_EQ(t.ToString(true), "a,b,c\nonly-one,,\n");
}

}  // namespace
}  // namespace isum::eval
