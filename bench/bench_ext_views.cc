// Extension (paper §10): workload compression for MATERIALIZED VIEW
// selection — the "other physical design structures" direction. Compresses
// the workload with each algorithm, runs the greedy view advisor on the
// compressed (weighted) queries, and evaluates the improvement of the
// selected views on the FULL workload.
//
// Observed shape (an honest negative-ish result worth reporting): ISUM is
// competitive but, unlike for index tuning, not dominant — template-coverage
// baselines (Stratified) can win, because an aggregate view only serves
// queries with the *exact* join/group core, so covering many templates
// matters more than column-level benefit weighting. This confirms the
// paper's framing that extending compression to other physical design
// problems needs problem-specific featurization (here: join-core identity
// rather than indexable columns).

#include <cstdio>

#include "bench_util.h"
#include "views/view_advisor.h"

using namespace isum;

namespace {

double ViewImprovementPercent(const workload::Workload& w,
                              const std::vector<views::MaterializedView>& v) {
  const engine::CostModel& cm = *w.env().cost_model;
  double base = 0.0, with = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    base += w.query(i).base_cost;
    with += views::CostWithViews(w.query(i).bound, v, cm);
  }
  return base > 0.0 ? (base - with) / base * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;
  const int mul = scale >= 2.0 ? 4 : 1;

  for (const char* workload_name : {"tpch", "tpcds"}) {
    workload::GeneratorOptions gen;
    gen.instances_per_template = (workload_name[3] == 'h' ? 8 : 2) * mul;
    workload::GeneratedWorkload env =
        workload::MakeWorkloadByName(workload_name, gen);
    const workload::Workload& w = *env.workload;

    views::ViewAdvisor advisor(env.cost_model.get());
    views::ViewTuningOptions options;
    options.max_views = 10;

    // Reference: view selection over the full workload.
    std::vector<advisor::WeightedQuery> all;
    for (size_t i = 0; i < w.size(); ++i) {
      all.push_back({&w.query(i).bound, 1.0});
    }
    const views::ViewTuningResult full = advisor.Tune(all, options);
    const double full_pct = ViewImprovementPercent(w, full.views);

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
        const views::ViewTuningResult tuned = advisor.Tune(queries, options);
        row.push_back(ViewImprovementPercent(w, tuned.views));
      }
      row.push_back(full_pct);
      table.AddRow(StrFormat("%zu", k), row);
    }
    table.Print(
        StrFormat("Extension (%s, n=%zu): view-selection improvement %% vs. "
                  "compressed size (max 10 views)",
                  env.name.c_str(), w.size()),
        csv);
  }
  return obs_scope.ExitCode();
}
