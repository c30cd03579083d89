// Figure 3: improvement on the input workload when tuning a compressed
// workload of increasing size, vs. tuning the full workload.
// Paper shape: ~20 well-chosen queries (of 92) reach close to the
// full-workload improvement.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "eval/pipeline.h"
#include "eval/reporting.h"
#include "workload/workload_factory.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  workload::GeneratorOptions gen;
  gen.instances_per_template = scale >= 2.0 ? 2 : 1;  // 91 or 182 queries
  workload::GeneratedWorkload env = workload::MakeTpcds(gen);

  advisor::TuningOptions tuning;
  tuning.max_indexes = 20;
  const eval::TunerFn tuner = eval::MakeDtaTuner(*env.workload, tuning);

  // Full-workload tuning as the reference line.
  workload::CompressedWorkload full;
  for (size_t i = 0; i < env.workload->size(); ++i) {
    full.entries.push_back({i, 1.0});
  }
  full.NormalizeWeights();
  const eval::EvaluationResult full_result =
      eval::RunPipeline(*env.workload, full, tuner, "Full");

  eval::Table table({"k", "improvement_pct", "full_workload_pct",
                     "compress_plus_tune_s"});
  core::Isum isum(env.workload.get());
  for (size_t k : {1u, 2u, 4u, 8u, 12u, 16u, 20u, 24u}) {
    if (k > env.workload->size()) break;
    const auto t0 = std::chrono::steady_clock::now();
    workload::CompressedWorkload compressed = isum.Compress(k);
    const double compress_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    eval::EvaluationResult r =
        eval::RunPipeline(*env.workload, compressed, tuner, "ISUM");
    table.AddRow(StrFormat("%zu", k),
                 {r.improvement_percent, full_result.improvement_percent,
                  compress_s + r.tuning_seconds});
  }
  table.Print("Figure 3: impact of workload compression (TPC-DS-like)", csv);
  std::printf("\nfull-workload tuning time: %.2fs\n",
              full_result.tuning_seconds);
  return obs_scope.ExitCode();
}
