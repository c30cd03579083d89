// Figure 5: correlation between per-query utility proxies and the actual
// reduction in cost when each query is tuned independently (TPC-H-like).
//   5a: utility = original cost of the query            (paper: 0.971)
//   5b: utility = (1 - avg selectivity) * original cost (paper: 0.988)

#include <cstdio>

#include "bench_util.h"
#include "common/math_util.h"
#include "core/utility.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  workload::GeneratorOptions gen;
  gen.instances_per_template = scale >= 2.0 ? 4 : 1;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  const workload::Workload& w = *env.workload;

  advisor::TuningOptions options;
  options.max_indexes = 20;  // "all indexes recommended for the query"
  const bench::PerQueryTuning tuned =
      bench::TuneEachQueryAlone(env, eval::MakeDtaTuner(w, options));

  std::vector<double> cost, utility_sel;
  for (size_t i = 0; i < w.size(); ++i) {
    cost.push_back(w.query(i).base_cost);
    utility_sel.push_back(core::EstimatedReduction(
        w.query(i), core::UtilityMode::kCostTimesSelectivity));
  }

  eval::Table table({"query", "cost", "utility_cost_sel", "actual_reduction"});
  for (size_t i = 0; i < w.size(); ++i) {
    table.AddRow(w.query(i).tag,
                 {cost[i], utility_sel[i], tuned.reduction[i]});
  }
  table.Print("Figure 5: per-query utility vs. actual reduction (TPC-H-like)",
              csv);

  std::printf("\ncorr(cost, reduction)              = %.3f  (paper: 0.971)\n",
              PearsonCorrelation(cost, tuned.reduction));
  std::printf("corr(cost x (1-sel), reduction)    = %.3f  (paper: 0.988)\n",
              PearsonCorrelation(utility_sel, tuned.reduction));
  return obs_scope.ExitCode();
}
