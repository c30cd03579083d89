// Figure 14: impact of the §7 weighing strategies on improvement (TPC-H-like):
// no weighing / benefits recorded at selection / recalibrated benefits /
// recalibrated + template-based utility readjustment.
// Paper shape: no-weighing worst; template-aware recalibration best.

#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  const struct {
    core::WeighingStrategy strategy;
    const char* name;
  } strategies[] = {
      {core::WeighingStrategy::kNone, "NoWeighing"},
      {core::WeighingStrategy::kSelectionBenefit, "Benefit(Selection)"},
      {core::WeighingStrategy::kRecalibrated, "Recalib.Benefit"},
      {core::WeighingStrategy::kRecalibratedWithTemplates,
       "Recalib.w/Template"},
  };

  workload::GeneratorOptions gen;
  gen.instances_per_template = scale >= 2.0 ? 16 : 8;
  // Skew instance counts across templates: weights only matter when some
  // selected queries represent many more workload queries than others.
  gen.instance_skew = 1.0;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  // A tight index budget (fewer indexes than selected queries want) forces
  // the tuner to prioritize; only then do query weights matter.
  advisor::TuningOptions tuning;
  tuning.max_indexes = 6;
  const eval::TunerFn tuner = eval::MakeDtaTuner(*env.workload, tuning);

  std::vector<std::string> headers = {"k"};
  for (const auto& s : strategies) headers.push_back(s.name);
  eval::Table table(std::move(headers));

  for (size_t k : {8u, 16u, 24u, 32u, 48u}) {
    std::vector<double> row;
    for (const auto& s : strategies) {
      core::IsumOptions options;
      options.weighing = s.strategy;
      const workload::CompressedWorkload compressed =
          core::Isum(env.workload.get(), options).Compress(k);
      row.push_back(
          eval::RunPipeline(*env.workload, compressed, tuner, s.name)
              .improvement_percent);
    }
    table.AddRow(StrFormat("%zu", k), row);
  }
  table.Print(StrFormat("Figure 14 (TPC-H-like, n=%zu): improvement %% per "
                        "weighing strategy",
                        env.workload->size()),
              csv);
  return obs_scope.ExitCode();
}
