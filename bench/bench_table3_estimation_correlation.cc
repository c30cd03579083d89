// Table 3: Pearson correlation of the improvement-estimation techniques of
// §4 with the actual per-query improvement reported by each advisor
// (DTA-style and DEXTER-style), on TPC-H-like and TPC-DS-like workloads.
//
// Rows (paper values, TPC-H DTA / TPC-H DEXTER / TPC-DS DTA / TPC-DS DEXTER):
//   Utility (only cost)        .54 / .40 / .33 / .28
//   Utility (cost+selectivity) .60 / .41 / .44 / .35
//   Similarity (rule-based)    .61 / .53 / .55 / .51
//   Similarity (stats-based)   .68 / .50 / .62 / .48
//   Benefit (rule-based)       .87 / .59 / .70 / .54
//   Benefit (stats-based)      .88 / .62 / .73 / .59

#include <cstdio>

#include "bench_util.h"
#include "common/math_util.h"
#include "core/benefit.h"

using namespace isum;

namespace {

struct Signals {
  std::vector<double> utility_cost;
  std::vector<double> utility_cost_sel;
  std::vector<double> similarity_rule;
  std::vector<double> similarity_stats;
  std::vector<double> benefit_rule;
  std::vector<double> benefit_stats;
};

Signals ComputeSignals(const workload::Workload& w) {
  Signals out;
  core::FeaturizationOptions rule;
  core::FeaturizationOptions stats;
  stats.scheme = core::WeightingScheme::kStatsBased;
  core::CompressionState rule_state(w, rule, core::UtilityMode::kCostOnly);
  core::CompressionState stats_state(w, stats,
                                     core::UtilityMode::kCostTimesSelectivity);
  for (size_t i = 0; i < w.size(); ++i) {
    out.utility_cost.push_back(rule_state.utility(i));
    out.utility_cost_sel.push_back(stats_state.utility(i));
    double sim_rule = 0.0, sim_stats = 0.0;
    for (size_t j = 0; j < w.size(); ++j) {
      if (j == i) continue;
      sim_rule += rule_state.Similarity(i, j);
      sim_stats += stats_state.Similarity(i, j);
    }
    out.similarity_rule.push_back(sim_rule);
    out.similarity_stats.push_back(sim_stats);
    out.benefit_rule.push_back(core::ConditionalBenefit(rule_state, i));
    out.benefit_stats.push_back(core::ConditionalBenefit(stats_state, i));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;
  (void)scale;

  eval::Table table({"estimation_technique", "TPC-H DTA", "TPC-H DEXTER",
                     "TPC-DS DTA", "TPC-DS DEXTER"});
  std::vector<std::vector<double>> columns;

  for (const char* workload_name : {"tpch", "tpcds"}) {
    workload::GeneratorOptions gen;
    // Several instances per template: correlations over a few dozen points
    // are too noisy to rank the techniques.
    gen.instances_per_template = workload_name[3] == 'h' ? 8 : 2;
    workload::GeneratedWorkload env =
        workload::MakeWorkloadByName(workload_name, gen);
    const workload::Workload& w = *env.workload;

    const Signals signals = ComputeSignals(w);

    advisor::TuningOptions dta_options;
    dta_options.max_indexes = 20;
    const bench::PerQueryTuning dta = bench::TuneEachQueryAlone(
        env, eval::MakeDtaTuner(w, dta_options));
    advisor::DexterOptions dexter_options;
    const bench::PerQueryTuning dexter = bench::TuneEachQueryAlone(
        env, eval::MakeDexterTuner(w, dexter_options));

    for (const auto* actual : {&dta.workload_improvement,
                               &dexter.workload_improvement}) {
      columns.push_back({PearsonCorrelation(signals.utility_cost, *actual),
                         PearsonCorrelation(signals.utility_cost_sel, *actual),
                         PearsonCorrelation(signals.similarity_rule, *actual),
                         PearsonCorrelation(signals.similarity_stats, *actual),
                         PearsonCorrelation(signals.benefit_rule, *actual),
                         PearsonCorrelation(signals.benefit_stats, *actual)});
    }
  }

  const char* rows[] = {"Utility (only cost)",  "Utility (cost+selectivity)",
                        "Similarity (rule)",    "Similarity (stats)",
                        "Benefit (rule)",       "Benefit (stats)"};
  for (int r = 0; r < 6; ++r) {
    table.AddRow(rows[r], {columns[0][r], columns[1][r], columns[2][r],
                           columns[3][r]});
  }
  table.Print("Table 3: correlation of estimation techniques with actual "
              "per-advisor improvement",
              csv);
  std::printf("\nPaper shape: benefit > similarity > utility in every "
              "column; DTA columns exceed DEXTER columns.\n");
  return obs_scope.ExitCode();
}
