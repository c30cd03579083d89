// Figure 11: the summary-features (linear-time) algorithm vs. the all-pairs
// greedy and the k-medoid clustering of [11], as the input workload grows:
// improvement (%) and compression time.
// Paper shape: summary ~= all-pairs in quality at a fraction of the time;
// k-medoid worst quality and slow.

#include <cmath>
#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  struct Algo {
    std::string name;
    std::unique_ptr<baselines::Compressor> compressor;
  };

  auto run_for = [&](const char* workload_name,
                     const std::vector<int>& instance_counts) {
    eval::Table table({"n_queries", "allpairs_pct", "kmedoid_pct",
                       "summary_pct", "allpairs_s", "kmedoid_s", "summary_s"});
    for (int instances : instance_counts) {
      workload::GeneratorOptions gen;
      gen.instances_per_template = instances;
      workload::GeneratedWorkload env =
          workload::MakeWorkloadByName(workload_name, gen);
      const size_t n = env.workload->size();
      const size_t k = std::max<size_t>(
          2, static_cast<size_t>(std::sqrt(static_cast<double>(n))));

      advisor::TuningOptions tuning;
      tuning.max_indexes = 20;
      const eval::TunerFn tuner = eval::MakeDtaTuner(*env.workload, tuning);

      core::IsumOptions allpairs_options;
      allpairs_options.algorithm = core::SelectionAlgorithm::kAllPairs;
      std::vector<Algo> algos;
      algos.push_back({"all-pairs", std::make_unique<eval::IsumCompressor>(
                                        allpairs_options, "all-pairs")});
      algos.push_back(
          {"k-medoid", std::make_unique<baselines::KMedoidCompressor>(1)});
      algos.push_back({"summary", std::make_unique<eval::IsumCompressor>()});

      std::vector<double> improvements, times;
      for (Algo& algo : algos) {
        bench::Timer timer;
        const workload::CompressedWorkload compressed =
            algo.compressor->Compress(*env.workload, k);
        times.push_back(timer.Seconds());
        improvements.push_back(
            eval::RunPipeline(*env.workload, compressed, tuner, algo.name)
                .improvement_percent);
      }
      table.AddRow(StrFormat("%zu", n),
                   {improvements[0], improvements[1], improvements[2],
                    times[0], times[1], times[2]});
    }
    table.Print(StrFormat("Figure 11 (%s): all-pairs vs. k-medoid vs. "
                          "summary-features",
                          workload_name),
                csv);
  };

  const int mul = scale >= 2.0 ? 4 : 1;
  run_for("tpch", {2 * mul, 8 * mul, 16 * mul, 32 * mul});
  run_for("realm", {1, 2 * mul});
  std::printf("\nPaper shape: summary quality ~= all-pairs; all-pairs time "
              "grows quadratically with n while summary stays near-linear; "
              "k-medoid slow and worst quality.\n");
  return obs_scope.ExitCode();
}
