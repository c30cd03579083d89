// Figure 9a: improvement (%) on the input workload vs. compressed workload
// size k, for all six algorithms, over the four workloads of Table 2.
// Paper shape: ISUM/ISUM-S dominate or tie across most (workload, k) points,
// and no single baseline is consistently second.

#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  struct Spec {
    const char* name;
    int instances;
    std::vector<size_t> ks;
  };
  // Default: reduced instance counts for quick runs; --scale 2+ doubles them.
  const int mul = scale >= 2.0 ? 4 : 1;
  const std::vector<Spec> specs = {
      {"tpch", 8 * mul, {2, 4, 8, 16, 26}},
      {"tpcds", 2 * mul, {2, 4, 8, 16, 27}},
      {"dsb", 4 * mul, {2, 4, 8, 16, 28}},
      {"realm", 0, {2, 4, 8, 16}},
  };

  for (const Spec& spec : specs) {
    workload::GeneratorOptions gen;
    gen.instances_per_template = spec.instances;
    workload::GeneratedWorkload env =
        workload::MakeWorkloadByName(spec.name, gen);

    advisor::TuningOptions tuning;
    tuning.max_indexes = 20;
    const eval::TunerFn tuner = eval::MakeDtaTuner(*env.workload, tuning);

    const auto compressors = bench::StandardCompressors();
    eval::Table table =
        bench::CompareCompressors(env, compressors, spec.ks, tuner);
    table.Print(StrFormat("Figure 9a (%s, n=%zu): improvement %% vs. "
                          "compressed size",
                          env.name.c_str(), env.workload->size()),
                csv);
  }
  std::printf("\nPaper shape: ISUM/ISUM-S highest for most k; Cost strong on "
              "Real-M; GSUM weak on Real-M; all converge at large k.\n");
  return obs_scope.ExitCode();
}
