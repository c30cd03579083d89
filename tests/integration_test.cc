// Cross-workload integration tests: the paper's headline property — ISUM's
// compressed workloads tune better than uniform sampling at equal k — must
// hold on every benchmark family, end to end (generate -> compress -> tune
// -> evaluate), with fixed seeds.

#include <gtest/gtest.h>

#include <optional>

#include "baselines/simple.h"
#include "eval/pipeline.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

// gtest lists a parameter without a printer as its raw bytes, and ctest
// registers each test under that listing. The name is held inline and the
// struct has no padding, so those bytes (and the test names) are the same on
// every build; a `const char*` here would print a load address instead.
struct WorkloadSpec {
  char name[12];
  int instances_per_template;
};
static_assert(sizeof(WorkloadSpec) == 16, "no padding bytes in the listing");

class IntegrationTest : public ::testing::TestWithParam<WorkloadSpec> {};

TEST_P(IntegrationTest, IsumBeatsUniformSamplingEndToEnd) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = GetParam().instances_per_template;
  workload::GeneratedWorkload env =
      workload::MakeWorkloadByName(GetParam().name, gen);
  const workload::Workload& w = *env.workload;
  ASSERT_GT(w.size(), 50u);

  advisor::TuningOptions tuning;
  tuning.max_indexes = 20;
  const eval::TunerFn tuner = eval::MakeDtaTuner(w, tuning);
  const size_t k = 8;

  const double isum_pct =
      eval::RunPipeline(w, core::Isum(&w).Compress(k), tuner, "ISUM")
          .improvement_percent;
  baselines::UniformSamplingCompressor uniform(1);
  const double uniform_pct =
      eval::RunPipeline(w, uniform.Compress(w, k), tuner, "Uniform")
          .improvement_percent;

  EXPECT_GT(isum_pct, 0.0);
  EXPECT_GT(isum_pct, uniform_pct) << GetParam().name;
}

TEST_P(IntegrationTest, CompressedTuningWithinReachOfFullTuning) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = GetParam().instances_per_template;
  workload::GeneratedWorkload env =
      workload::MakeWorkloadByName(GetParam().name, gen);
  const workload::Workload& w = *env.workload;

  advisor::TuningOptions tuning;
  tuning.max_indexes = 20;
  const eval::TunerFn tuner = eval::MakeDtaTuner(w, tuning);

  workload::CompressedWorkload full;
  for (size_t i = 0; i < w.size(); ++i) full.entries.push_back({i, 1.0});
  full.NormalizeWeights();
  const double full_pct =
      eval::RunPipeline(w, full, tuner, "FULL").improvement_percent;

  // A quarter of sqrt-n-scale selection should recover a third of the
  // full-tuning improvement on every family (Fig 3/9a shape).
  const size_t k = 16;
  const double isum_pct =
      eval::RunPipeline(w, core::Isum(&w).Compress(k), tuner, "ISUM")
          .improvement_percent;
  EXPECT_GT(isum_pct, full_pct / 3.0) << GetParam().name;
  EXPECT_LE(isum_pct, full_pct + 1e-6) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(Workloads, IntegrationTest,
                         ::testing::Values(WorkloadSpec{"tpch", 8},
                                           WorkloadSpec{"tpcds", 2},
                                           WorkloadSpec{"dsb", 4}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace isum
