// Figure 6: which per-query signal predicts whole-workload improvement when
// the query is selected for tuning alone? (TPC-H-like)
//   6a: utility      (paper corr: 0.60)
//   6b: similarity   (paper corr: 0.58)
//   6c: benefit      (paper corr: 0.89)

#include <cstdio>

#include "bench_util.h"
#include "common/math_util.h"
#include "core/benefit.h"

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
  options.max_indexes = 20;
  const bench::PerQueryTuning tuned =
      bench::TuneEachQueryAlone(env, eval::MakeDtaTuner(w, options));

  core::CompressionState state(w, {}, core::UtilityMode::kCostOnly);
  std::vector<double> utility, similarity, benefit;
  for (size_t i = 0; i < w.size(); ++i) {
    utility.push_back(state.utility(i));
    double sim = 0.0;
    for (size_t j = 0; j < w.size(); ++j) {
      if (j != i) sim += state.Similarity(i, j);
    }
    similarity.push_back(sim);
    benefit.push_back(core::ConditionalBenefit(state, i));
  }

  eval::Table table(
      {"query", "utility", "similarity", "benefit", "improvement_pct"});
  for (size_t i = 0; i < w.size(); ++i) {
    table.AddRow(w.query(i).tag, {utility[i], similarity[i], benefit[i],
                                  tuned.workload_improvement[i]});
  }
  table.Print("Figure 6: utility / similarity / benefit vs. workload "
              "improvement (TPC-H-like)",
              csv);

  std::printf("\ncorr(utility, improvement)    = %.3f  (paper: 0.60)\n",
              PearsonCorrelation(utility, tuned.workload_improvement));
  std::printf("corr(similarity, improvement) = %.3f  (paper: 0.58)\n",
              PearsonCorrelation(similarity, tuned.workload_improvement));
  std::printf("corr(benefit, improvement)    = %.3f  (paper: 0.89)\n",
              PearsonCorrelation(benefit, tuned.workload_improvement));
  return obs_scope.ExitCode();
}
