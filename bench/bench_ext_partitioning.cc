// Extension (paper §10): workload compression for horizontal PARTITIONING
// selection. Compresses with each algorithm, runs the greedy partitioning
// advisor on the compressed (weighted) queries, and evaluates partition-
// pruning improvement on the FULL workload.
// Expected shape (contrast with bench_ext_views): compression transfers
// WELL here — partition pruning is driven by sargable filter columns, which
// are exactly the features ISUM weighs, so ISUM should track the
// full-workload line closely; uniform sampling should trail.

#include <cstdio>

#include "bench_util.h"
#include "partition/partition_advisor.h"

using namespace isum;

namespace {

double PartitionImprovementPercent(const workload::Workload& w,
                                   const partition::PartitioningScheme& s) {
  const engine::CostModel& cm = *w.env().cost_model;
  double base = 0.0, with = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    base += w.query(i).base_cost;
    with += partition::CostWithPartitioning(w.query(i).bound, s, cm);
  }
  return base > 0.0 ? (base - with) / base * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;
  const int mul = scale >= 2.0 ? 4 : 1;

  for (const char* workload_name : {"tpch", "dsb"}) {
    workload::GeneratorOptions gen;
    gen.instances_per_template = (workload_name[3] == 'h' ? 8 : 4) * mul;
    workload::GeneratedWorkload env =
        workload::MakeWorkloadByName(workload_name, gen);
    const workload::Workload& w = *env.workload;

    partition::PartitionAdvisor advisor(env.cost_model.get());
    partition::PartitionTuningOptions options;
    options.max_partitioned_tables = 4;

    std::vector<advisor::WeightedQuery> all;
    for (size_t i = 0; i < w.size(); ++i) {
      all.push_back({&w.query(i).bound, 1.0});
    }
    const double full_pct = PartitionImprovementPercent(
        w, advisor.Tune(all, options).scheme);

    std::vector<std::string> headers = {"k"};
    const auto compressors = bench::StandardCompressors();
    for (const auto& c : compressors) headers.push_back(c->name());
    headers.push_back("FULL");
    eval::Table table(std::move(headers));

    for (size_t k : {2u, 4u, 8u, 16u}) {
      std::vector<double> row;
      for (const auto& c : compressors) {
        const workload::CompressedWorkload compressed = c->Compress(w, k);
        std::vector<advisor::WeightedQuery> queries;
        for (const auto& e : compressed.entries) {
          queries.push_back({&w.query(e.query_index).bound, e.weight});
        }
        row.push_back(PartitionImprovementPercent(
            w, advisor.Tune(queries, options).scheme));
      }
      row.push_back(full_pct);
      table.AddRow(StrFormat("%zu", k), row);
    }
    table.Print(
        StrFormat("Extension (%s, n=%zu): partitioning improvement %% vs. "
                  "compressed size (max 4 partitioned tables)",
                  env.name.c_str(), w.size()),
        csv);
  }
  return obs_scope.ExitCode();
}
