// Figure 10: improvement (%) vs. storage budget (1.5x–3x the database size),
// including the ISUM-NoTable ablation (stats weights without table sizes).
// Paper shape: ISUM-NoTable competitive at 1.5x (prefers small-table
// indexes) but clearly worse at 2x and beyond.

#include <cmath>
#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  const int mul = scale >= 2.0 ? 4 : 1;
  struct Spec {
    const char* name;
    int instances;
  };
  const std::vector<Spec> specs = {
      {"tpch", 8 * mul}, {"tpcds", 2 * mul}, {"dsb", 4 * mul}, {"realm", 0}};

  for (const Spec& spec : specs) {
    workload::GeneratorOptions gen;
    gen.instances_per_template = spec.instances;
    workload::GeneratedWorkload env =
        workload::MakeWorkloadByName(spec.name, gen);
    // Larger k and index cap than Fig 9b so the storage budget actually
    // binds (with tiny configurations every budget is equally loose).
    const size_t k = std::max<size_t>(
        4, static_cast<size_t>(
               std::sqrt(static_cast<double>(env.workload->size()))));

    // Figure 10 uses the baselines + ISUM + ISUM-NoTable (ISUM-S omitted).
    std::vector<std::unique_ptr<baselines::Compressor>> compressors;
    compressors.push_back(std::make_unique<baselines::UniformSamplingCompressor>(1));
    compressors.push_back(std::make_unique<baselines::TopCostCompressor>());
    compressors.push_back(std::make_unique<baselines::StratifiedCompressor>(1));
    compressors.push_back(std::make_unique<baselines::GsumCompressor>());
    compressors.push_back(std::make_unique<eval::IsumCompressor>());
    compressors.push_back(std::make_unique<eval::IsumCompressor>(
        core::IsumOptions::NoTableVariant(), "ISUM-NoTable"));

    std::vector<std::string> headers = {"storage_budget"};
    for (const auto& c : compressors) headers.push_back(c->name());
    eval::Table table(std::move(headers));

    std::vector<workload::CompressedWorkload> compressed;
    for (const auto& c : compressors) {
      compressed.push_back(c->Compress(*env.workload, k));
    }

    for (double budget : {0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
      advisor::TuningOptions tuning;
      tuning.max_indexes = 40;
      tuning.storage_budget_multiplier = budget;
      const eval::TunerFn tuner = eval::MakeDtaTuner(*env.workload, tuning);
      std::vector<double> row;
      for (size_t c = 0; c < compressors.size(); ++c) {
        row.push_back(eval::RunPipeline(*env.workload, compressed[c], tuner,
                                        compressors[c]->name())
                          .improvement_percent);
      }
      table.AddRow(StrFormat("%.1fx", budget), row);
    }
    table.Print(StrFormat("Figure 10 (%s, k=%zu): improvement %% vs. storage "
                          "budget",
                          env.name.c_str(), k),
                csv);
  }
  return obs_scope.ExitCode();
}
