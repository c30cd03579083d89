// Figure 7: impact of the similarity measure used inside the benefit metric
// on its correlation with whole-workload improvement (TPC-H-like).
//   7a: candidate-index Jaccard          (paper corr: 0.66)
//   7b: plain Jaccard over columns       (paper corr: 0.76)
//   7c: weighted Jaccard, rule weights   (paper corr: 0.87)
//   7d: weighted Jaccard, stats weights  (paper corr: 0.89)

#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "common/math_util.h"
#include "core/similarity.h"

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

  const std::vector<double> utilities =
      core::ComputeUtilities(w, core::UtilityMode::kCostOnly);

  // Benefit under a pluggable pairwise similarity.
  auto benefit_with = [&](const std::function<double(size_t, size_t)>& sim) {
    std::vector<double> out;
    for (size_t i = 0; i < w.size(); ++i) {
      double b = utilities[i];
      for (size_t j = 0; j < w.size(); ++j) {
        if (j != i) b += sim(i, j) * utilities[j];
      }
      out.push_back(b);
    }
    return out;
  };

  // Feature vectors for the two weighted variants.
  core::FeatureSpace space;
  core::Featurizer featurizer(env.catalog.get(), env.stats.get(), &space);
  std::vector<core::SparseVector> rule_features, stats_features;
  core::FeaturizationOptions stats_options;
  stats_options.scheme = core::WeightingScheme::kStatsBased;
  for (size_t i = 0; i < w.size(); ++i) {
    rule_features.push_back(featurizer.Featurize(w.query(i).bound));
    stats_features.push_back(
        featurizer.Featurize(w.query(i).bound, stats_options));
  }

  struct Variant {
    const char* name;
    const char* paper;
    std::vector<double> benefit;
  };
  // Candidate generation runs once per query via the cache, not once per
  // pair — the n² pairwise loops below only merge precomputed id sets.
  std::vector<const sql::BoundQuery*> query_ptrs;
  for (size_t i = 0; i < w.size(); ++i) query_ptrs.push_back(&w.query(i).bound);
  const core::PairwiseSimilarityCache sim_cache(query_ptrs, *env.stats);

  std::vector<Variant> variants;
  variants.push_back({"candidate-index Jaccard", "0.66",
                      benefit_with([&](size_t i, size_t j) {
                        return sim_cache.CandidateIndexJaccard(i, j);
                      })});
  variants.push_back({"plain Jaccard (columns)", "0.76",
                      benefit_with([&](size_t i, size_t j) {
                        return sim_cache.IndexableColumnJaccard(i, j);
                      })});
  variants.push_back({"weighted Jaccard (rule-based)", "0.87",
                      benefit_with([&](size_t i, size_t j) {
                        return core::WeightedJaccard(rule_features[i],
                                                     rule_features[j]);
                      })});
  variants.push_back({"weighted Jaccard (stats-based)", "0.89",
                      benefit_with([&](size_t i, size_t j) {
                        return core::WeightedJaccard(stats_features[i],
                                                     stats_features[j]);
                      })});

  eval::Table table({"similarity_measure", "correlation", "paper"});
  for (const Variant& v : variants) {
    table.AddRow({v.name,
                  StrFormat("%.3f", PearsonCorrelation(
                                        v.benefit, tuned.workload_improvement)),
                  v.paper});
  }
  table.Print(
      "Figure 7: benefit-vs-improvement correlation per similarity measure "
      "(TPC-H-like)",
      csv);
  std::printf(
      "\nPaper shape: weighted Jaccard (rule/stats) beats candidate-index "
      "and unweighted Jaccard (0.87-0.89 vs 0.66-0.76).\n"
      "Measured: all four variants correlate strongly and about equally "
      "here — our 22 templates do not produce the pathological candidate "
      "mismatches (column-order divergence) that separate the measures in "
      "the paper's 2,200-query workloads. See EXPERIMENTS.md.\n");
  return obs_scope.ExitCode();
}
