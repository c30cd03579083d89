// Ablation (DESIGN.md design-choice index): what delta costing and the
// affected-table pruning in greedy enumeration buy. Reports, per workload
// size: real optimizer invocations, the requests answered by costs carried
// over from the previous round (TuningResult::cache_hits), and the calls an
// unpruned enumerator would have made (every candidate x every query x
// every greedy round).

#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;
  const int mul = scale >= 2.0 ? 2 : 1;

  eval::Table table({"n_queries", "optimizer_calls", "cache_hits",
                     "hit_rate_pct", "naive_calls_est"});
  for (int templates : {10, 30, 60, 91}) {
    workload::GeneratorOptions gen;
    gen.instances_per_template = mul;
    gen.max_templates = templates;
    workload::GeneratedWorkload env = workload::MakeTpcds(gen);

    std::vector<advisor::WeightedQuery> queries;
    for (size_t i = 0; i < env.workload->size(); ++i) {
      queries.push_back({&env.workload->query(i).bound, 1.0});
    }
    advisor::TuningOptions options;
    options.max_indexes = 20;
    advisor::DtaStyleAdvisor advisor(env.cost_model.get());
    const advisor::TuningResult result = advisor.Tune(queries, options);

    // A naive enumerator re-costs every query for every candidate trial.
    const double naive = static_cast<double>(result.configurations_explored) *
                         static_cast<double>(queries.size());
    const double calls = static_cast<double>(result.optimizer_calls);
    const double hits = static_cast<double>(result.cache_hits);
    table.AddRow(StrFormat("%zu", queries.size()),
                 {calls, hits, 100.0 * hits / std::max(1.0, calls + hits),
                  naive});
  }
  table.Print("Ablation: optimizer-call savings from delta costing + "
              "affected-table pruning (TPC-DS-like, full tuning)",
              csv);
  std::printf("\nExpected shape: real optimizer calls grow far slower than "
              "the naive candidate x query x round product; most of the "
              "remaining requests are carried over (hit_rate_pct = hits / "
              "(calls + hits)).\n");
  return obs_scope.ExitCode();
}
