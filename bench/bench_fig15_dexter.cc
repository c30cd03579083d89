// Figure 15: generalization to a second, simpler index advisor (DEXTER-like,
// minimum improvement 5%): improvement (%) vs. k on TPC-H-like and
// TPC-DS-like workloads for all six algorithms.
// Paper shape: ISUM still leads for most k; absolute improvements smaller
// than with the DTA-style advisor.

#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;
  const int mul = scale >= 2.0 ? 4 : 1;

  for (const char* workload_name : {"tpch", "tpcds"}) {
    workload::GeneratorOptions gen;
    gen.instances_per_template = (workload_name[3] == 'h' ? 4 : 1) * mul;
    workload::GeneratedWorkload env =
        workload::MakeWorkloadByName(workload_name, gen);

    advisor::DexterOptions options;
    options.min_improvement = 0.05;  // the paper's DEXTER setting
    const eval::TunerFn tuner = eval::MakeDexterTuner(*env.workload, options);

    const auto compressors = bench::StandardCompressors();
    eval::Table table = bench::CompareCompressors(
        env, compressors, {2, 4, 8, 16, 32}, tuner);
    table.Print(StrFormat("Figure 15 (%s, n=%zu): improvement %% vs. k under "
                          "the DEXTER-style advisor",
                          env.name.c_str(), env.workload->size()),
                csv);
  }
  return obs_scope.ExitCode();
}
