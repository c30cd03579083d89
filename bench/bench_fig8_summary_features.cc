// Figure 8: quality of the summary-features approximation (§6).
//   8a: distribution of F_qs(V) / F_qs(W) on TPC-H-like and TPC-DS-like
//       (paper: >70% of queries within 2x).
//   8b: correlation of benefit-via-summary with workload improvement on
//       TPC-H-like (paper: 0.80, vs 0.87–0.89 for all-pairs benefit).

#include <cstdio>

#include "bench_util.h"
#include "common/math_util.h"
#include "core/benefit.h"
#include "core/summary.h"

using namespace isum;

namespace {

struct RatioStats {
  std::vector<double> ratios;
  double within_2x = 0.0;
};

RatioStats SummaryErrorRatios(const workload::Workload& w) {
  core::CompressionState state(w, {}, core::UtilityMode::kCostOnly);
  const core::SparseVector summary = core::ComputeSummaryFeatures(state);
  double total_utility = 0.0;
  for (size_t i = 0; i < state.size(); ++i) total_utility += state.utility(i);

  RatioStats out;
  int in_band = 0;
  for (size_t s = 0; s < state.size(); ++s) {
    const double fw = core::InfluenceOnWorkload(state, s);
    if (fw <= 1e-12) continue;
    const double fv = core::SummaryInfluence(state.features(s),
                                             state.utility(s), total_utility,
                                             summary);
    const double ratio = fv / fw;
    out.ratios.push_back(ratio);
    if (ratio >= 0.5 && ratio <= 2.0) ++in_band;
  }
  out.within_2x = out.ratios.empty()
                      ? 0.0
                      : 100.0 * in_band / static_cast<double>(out.ratios.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  // --- 8a: error ratio distribution. ---
  workload::GeneratorOptions gen;
  gen.instances_per_template = scale >= 2.0 ? 4 : 2;
  workload::GeneratedWorkload tpch = workload::MakeTpch(gen);
  workload::GeneratorOptions gen_ds;
  gen_ds.instances_per_template = scale >= 2.0 ? 2 : 1;
  workload::GeneratedWorkload tpcds = workload::MakeTpcds(gen_ds);

  eval::Table ratios({"workload", "p10", "p50", "p90", "pct_within_2x"});
  for (const auto* env : {&tpch, &tpcds}) {
    RatioStats stats = SummaryErrorRatios(*env->workload);
    ratios.AddRow(env->name, {Percentile(stats.ratios, 10),
                              Percentile(stats.ratios, 50),
                              Percentile(stats.ratios, 90), stats.within_2x});
  }
  ratios.Print("Figure 8a: F(V)/F(W) error-ratio distribution", csv);
  std::printf("\nPaper shape: the bulk of queries fall within 2x "
              "(paper: >70%%), far inside the Theorem 3 bounds.\n");

  // --- 8b: benefit-via-summary correlation (TPC-H-like). ---
  workload::GeneratorOptions gen_b;
  gen_b.instances_per_template = 1;
  workload::GeneratedWorkload env = workload::MakeTpch(gen_b);
  const workload::Workload& w = *env.workload;
  advisor::TuningOptions options;
  options.max_indexes = 20;
  const bench::PerQueryTuning tuned =
      bench::TuneEachQueryAlone(env, eval::MakeDtaTuner(w, options));

  core::CompressionState state(w, {}, core::UtilityMode::kCostOnly);
  const core::SparseVector summary = core::ComputeSummaryFeatures(state);
  double total_utility = 0.0;
  for (size_t i = 0; i < state.size(); ++i) total_utility += state.utility(i);

  std::vector<double> benefit_allpairs, benefit_summary;
  for (size_t i = 0; i < w.size(); ++i) {
    benefit_allpairs.push_back(core::ConditionalBenefit(state, i));
    benefit_summary.push_back(
        state.utility(i) +
        core::SummaryInfluence(state.features(i), state.utility(i),
                               total_utility, summary));
  }
  std::printf("\nFigure 8b (TPC-H-like):\n");
  std::printf("corr(benefit via summary, improvement)   = %.3f  (paper: 0.80)\n",
              PearsonCorrelation(benefit_summary, tuned.workload_improvement));
  std::printf("corr(benefit via all-pairs, improvement) = %.3f  (paper: 0.87)\n",
              PearsonCorrelation(benefit_allpairs, tuned.workload_improvement));
  return obs_scope.ExitCode();
}
