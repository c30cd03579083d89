// Figure 2: scalability challenges in index tuning (TPC-DS-like).
//   2a: total tuning time and time spent on optimizer calls vs. #queries.
//   2b: configurations explored vs. #queries.
//
// Repro extension:
//   2c: ISUM end-to-end compression time vs. #queries, one Isum::Compress
//       per size. With --trace= each size's compress_end decision event
//       carries the selection hash and benefit sum, so runs of two
//       revisions can be compared for quality (`tracecat explain`).
//       Whole-pipeline perf records come from benchmark/isum_bench, not
//       from this driver.
//
// Flags (parsed with the shared set in bench_util.h):
//   --compress-only   skip the slow 2a/2b tuning sweep (the journal, profile
//                     and chaos CI jobs only need 2c)
//   --scale s         scales the 2c workload sizes (default sweep tops out
//                     at ~100k queries; CI smoke uses --scale 0.01)

#include <cstdio>

#include "bench_util.h"
#include "obs/journal.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;
  const bool compress_only = obs_scope.flags().compress_only;

  // --- 2c: compression scalability (always runs). TPC-DS-like templates,
  // instance counts chosen to hit each target workload size. ---
  eval::Table compress_table({"n_queries", "compress_time_s", "selected",
                              "benefit_sum", "selection_hash"});
  const size_t kCompressedSize = 50;
  for (int target : {1000, 5000, 20000, 100000}) {
    const int n = static_cast<int>(target * scale);
    if (n < 1) continue;
    workload::GeneratorOptions gen;
    gen.instances_per_template = std::max(1, n / 91);
    workload::GeneratedWorkload env = workload::MakeTpcds(gen);

    core::Isum isum(env.workload.get());
    bench::Timer compress_timer;
    const workload::CompressedWorkload compressed =
        isum.Compress(kCompressedSize);
    const double compress_seconds = compress_timer.Seconds();

    // Quality columns: equal selections <=> equal hashes, and the hash is
    // the one the compress_end decision event carries.
    double benefit_sum = 0.0;
    std::vector<size_t> selected;
    for (const auto& entry : compressed.entries) {
      benefit_sum += entry.selection_benefit;
      selected.push_back(entry.query_index);
    }
    compress_table.AddRow(
        {StrFormat("%zu", env.workload->size()),
         StrFormat("%.2f", compress_seconds),
         StrFormat("%zu", selected.size()), StrFormat("%.2f", benefit_sum),
         StrFormat("%016llx",
                   static_cast<unsigned long long>(obs::SelectionOrderHash(
                       selected.data(), selected.size())))});
  }
  compress_table.Print(
      "Figure 2c (repro extension): ISUM compression time vs. workload size "
      "(TPC-DS-like)",
      csv);

  if (compress_only) {
    std::printf("\n(--compress-only: skipping the 2a/2b tuning sweep)\n");
    return obs_scope.ExitCode();
  }

  eval::Table table({"n_queries", "tuning_time_s", "optimizer_call_time_s",
                     "optimizer_calls", "configs_explored"});

  const int max_templates = static_cast<int>(92 * (scale > 1 ? scale : 1.0));
  for (int n : {1, 10, 20, 40, 60, 80, 92}) {
    if (n > max_templates) break;
    workload::GeneratorOptions gen;
    gen.instances_per_template = 1;
    gen.max_templates = n;
    workload::GeneratedWorkload env = workload::MakeTpcds(gen);

    std::vector<advisor::WeightedQuery> queries;
    for (size_t i = 0; i < env.workload->size(); ++i) {
      queries.push_back({&env.workload->query(i).bound, 1.0});
    }
    advisor::TuningOptions options;
    options.max_indexes = 20;
    advisor::DtaStyleAdvisor advisor(env.cost_model.get());
    const advisor::TuningResult result = advisor.Tune(queries, options);
    // The generator caps n at its 91 templates, so label the row with the
    // workload it actually built.
    table.AddRow(StrFormat("%zu", env.workload->size()),
                 {result.elapsed_seconds, result.optimizer_seconds,
                  static_cast<double>(result.optimizer_calls),
                  static_cast<double>(result.configurations_explored)});
  }
  table.Print("Figure 2: tuning time / optimizer calls / configurations "
              "explored vs. workload size (TPC-DS-like)",
              csv);
  std::printf("\nPaper shape: tuning time and explored configurations grow "
              "steeply with n; optimizer calls dominate tuning time.\n");
  return obs_scope.ExitCode();
}
