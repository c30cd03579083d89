// Extension (paper §10 future work): incremental/anytime compression.
// Streams the workload through IncrementalIsum in batches of varying size
// and compares the tuned improvement of its final selection against batch
// ISUM (upper reference) and uniform sampling (lower reference), plus the
// quality of intermediate ("anytime") selections after each prefix.

#include <cstdio>

#include "bench_util.h"
#include "core/incremental.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  workload::GeneratorOptions gen;
  gen.instances_per_template = scale >= 2.0 ? 16 : 8;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  const workload::Workload& w = *env.workload;
  const size_t k = 8;

  advisor::TuningOptions tuning;
  tuning.max_indexes = 20;
  const eval::TunerFn tuner = eval::MakeDtaTuner(w, tuning);

  const double batch_isum =
      eval::RunPipeline(w, core::Isum(&w).Compress(k), tuner, "ISUM")
          .improvement_percent;
  baselines::UniformSamplingCompressor uniform(1);
  const double uniform_pct =
      eval::RunPipeline(w, uniform.Compress(w, k), tuner, "Uniform")
          .improvement_percent;

  eval::Table table({"batch_size", "incremental_pct", "batch_isum_pct",
                     "uniform_pct"});
  for (size_t batch : {w.size(), w.size() / 4, w.size() / 16, 4ul}) {
    core::IncrementalIsum inc(&w, k);
    for (size_t begin = 0; begin < w.size(); begin += batch) {
      inc.ObserveBatch(begin, std::min(w.size(), begin + batch));
    }
    const double pct =
        eval::RunPipeline(w, inc.Current(), tuner, "Incremental")
            .improvement_percent;
    table.AddRow(StrFormat("%zu", batch), {pct, batch_isum, uniform_pct});
  }
  table.Print(StrFormat("Extension: incremental ISUM (TPC-H-like, n=%zu, "
                        "k=%zu) vs. batch ISUM and uniform",
                        w.size(), k),
              csv);

  // Anytime behaviour: quality of the selection after each prefix.
  eval::Table anytime({"observed_prefix", "improvement_pct"});
  core::IncrementalIsum inc(&w, k);
  const size_t step = std::max<size_t>(1, w.size() / 8);
  for (size_t begin = 0; begin < w.size(); begin += step) {
    inc.ObserveBatch(begin, std::min(w.size(), begin + step));
    const double pct = eval::RunPipeline(w, inc.Current(), tuner, "inc")
                           .improvement_percent;
    anytime.AddRow(StrFormat("%zu", inc.observed()), {pct});
  }
  anytime.Print("Extension: anytime quality after each observed prefix", csv);
  std::printf("\nExpected shape: incremental within a few points of batch "
              "ISUM even with small batches; anytime quality grows with the "
              "observed prefix; both well above uniform sampling.\n");
  return obs_scope.ExitCode();
}
