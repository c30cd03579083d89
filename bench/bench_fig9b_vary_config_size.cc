// Figure 9b: improvement (%) vs. index configuration size m, with the
// compressed workload size fixed at ~0.5*sqrt(n) (paper §8.1).

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

    const size_t k = std::max<size_t>(
        2, static_cast<size_t>(0.5 * std::sqrt(
                                   static_cast<double>(env.workload->size()))));

    std::vector<std::string> headers = {"config_size_m"};
    const auto compressors = bench::StandardCompressors();
    for (const auto& c : compressors) headers.push_back(c->name());
    eval::Table table(std::move(headers));

    // Compress once per algorithm (compression is independent of m).
    std::vector<workload::CompressedWorkload> compressed;
    for (const auto& c : compressors) {
      compressed.push_back(c->Compress(*env.workload, k));
    }

    for (int m : {8, 16, 24, 32, 48, 64}) {
      advisor::TuningOptions tuning;
      tuning.max_indexes = m;
      const eval::TunerFn tuner = eval::MakeDtaTuner(*env.workload, tuning);
      std::vector<double> row;
      for (size_t c = 0; c < compressors.size(); ++c) {
        row.push_back(eval::RunPipeline(*env.workload, compressed[c], tuner,
                                        compressors[c]->name())
                          .improvement_percent);
      }
      table.AddRow(StrFormat("%d", m), row);
    }
    table.Print(StrFormat("Figure 9b (%s, n=%zu, k=%zu): improvement %% vs. "
                          "configuration size",
                          env.name.c_str(), env.workload->size(), k),
                csv);
  }
  std::printf("\nPaper shape: improvement rises with m then plateaus "
              "(~30 indexes); ISUM variants lead across most m.\n");
  return obs_scope.ExitCode();
}
