// Ablation (DESIGN.md design-choice index): how much of the advisor's power
// comes from each candidate-generation ingredient? Sweeps the Table 1 rule
// set from single-column selection candidates up to the full rule set with
// covering variants, tuning the full TPC-H-like workload each time.

#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  workload::GeneratorOptions gen;
  gen.instances_per_template = scale >= 2.0 ? 4 : 2;
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  const workload::Workload& w = *env.workload;

  struct Variant {
    const char* name;
    advisor::CandidateGenOptions options;
  };
  std::vector<Variant> variants;
  {
    Variant v{"single-column keys only", {}};
    v.options.max_key_columns = 1;
    v.options.covering_variants = false;
    variants.push_back(v);
  }
  {
    Variant v{"2-column keys, no covering", {}};
    v.options.max_key_columns = 2;
    v.options.covering_variants = false;
    variants.push_back(v);
  }
  {
    Variant v{"full rules (3-col), no covering", {}};
    v.options.covering_variants = false;
    variants.push_back(v);
  }
  {
    Variant v{"full rules + covering (default)", {}};
    variants.push_back(v);
  }
  {
    Variant v{"full rules + wide covering", {}};
    v.options.max_include_columns = 16;
    variants.push_back(v);
  }

  std::vector<advisor::WeightedQuery> queries;
  for (size_t i = 0; i < w.size(); ++i) {
    queries.push_back({&w.query(i).bound, 1.0});
  }

  eval::Table table({"candidate_generation", "improvement_pct",
                     "optimizer_calls", "tuning_s"});
  for (const Variant& variant : variants) {
    advisor::TuningOptions options;
    options.max_indexes = 20;
    options.candidate_options = variant.options;
    advisor::DtaStyleAdvisor advisor(env.cost_model.get());
    const advisor::TuningResult result = advisor.Tune(queries, options);
    table.AddRow(variant.name,
                 {eval::WorkloadImprovementPercent(w, result.configuration),
                  static_cast<double>(result.optimizer_calls),
                  result.elapsed_seconds});
  }
  table.Print(StrFormat("Ablation: candidate generation ingredients "
                        "(TPC-H-like, n=%zu, full-workload tuning)",
                        w.size()),
              csv);
  std::printf("\nExpected shape: multi-column keys add over single-column; "
              "covering variants add the largest jump (index-only plans); "
              "wider covering costs more optimizer calls for little gain.\n");
  return obs_scope.ExitCode();
}
