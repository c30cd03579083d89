// Figure 13: impact of the §4.3 update strategies on improvement, using the
// all-pairs greedy (as in the paper): no update / utility-only /
// utility + weight-subtract / utility + feature-zero.
// Paper shape: no-update worst; feature-zero (the default) best.

#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;
  const int mul = scale >= 2.0 ? 4 : 1;

  const struct {
    core::UpdateStrategy strategy;
    const char* name;
  } strategies[] = {
      {core::UpdateStrategy::kNone, "NoUpdate"},
      {core::UpdateStrategy::kUtilityOnly, "UtilityOnly"},
      {core::UpdateStrategy::kUtilityAndWeightSubtract, "Util+WeightSubtract"},
      {core::UpdateStrategy::kUtilityAndFeatureZero, "Util+FeatureZero"},
  };

  for (const char* workload_name : {"tpch", "tpcds"}) {
    workload::GeneratorOptions gen;
    gen.instances_per_template = (workload_name[3] == 'h' ? 4 : 1) * mul;
    workload::GeneratedWorkload env =
        workload::MakeWorkloadByName(workload_name, gen);
    advisor::TuningOptions tuning;
    tuning.max_indexes = 20;
    const eval::TunerFn tuner = eval::MakeDtaTuner(*env.workload, tuning);

    std::vector<std::string> headers = {"k"};
    for (const auto& s : strategies) headers.push_back(s.name);
    eval::Table table(std::move(headers));

    for (size_t k : {1u, 2u, 4u, 6u, 8u}) {
      std::vector<double> row;
      for (const auto& s : strategies) {
        core::IsumOptions options;
        options.algorithm = core::SelectionAlgorithm::kAllPairs;
        options.update = s.strategy;
        const workload::CompressedWorkload compressed =
            core::Isum(env.workload.get(), options).Compress(k);
        row.push_back(eval::RunPipeline(*env.workload, compressed, tuner,
                                        s.name)
                          .improvement_percent);
      }
      table.AddRow(StrFormat("%zu", k), row);
    }
    table.Print(StrFormat("Figure 13 (%s): improvement %% per update strategy",
                          env.name.c_str()),
                csv);
  }
  return obs_scope.ExitCode();
}
