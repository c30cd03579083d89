// Calibration: does the cost-model substrate (standing in for SQL Server's
// optimizer) behave like a real system? Materializes a small TPC-H-like
// database from the same statistics the optimizer costs with, executes the
// optimizer's plans counting rows touched, and reports:
//   (a) correlation of estimated cost vs. executed work per query;
//   (b) estimated vs. executed whole-workload improvement under the
//       advisor's recommended configuration.
// This backs DESIGN.md's substitution argument empirically.

#include <cstdio>

#include "bench_util.h"
#include "common/math_util.h"
#include "exec/executor.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;

  workload::GeneratorOptions gen;
  gen.instances_per_template = scale >= 2.0 ? 2 : 1;
  gen.scale = 0.002;  // small tables so execution is fast
  workload::GeneratedWorkload env = workload::MakeTpch(gen);
  const workload::Workload& w = *env.workload;

  exec::Database db(env.catalog.get(), env.stats.get());
  db.MaterializeAll(/*max_rows_per_table=*/30'000, /*seed=*/5);
  exec::Executor executor(&db);
  engine::Optimizer optimizer(env.cost_model.get());

  // --- (a) cost vs. work, per query, empty configuration. ---
  std::vector<double> est, work;
  eval::Table per_query({"query", "estimated_cost", "executed_row_ops"});
  for (size_t i = 0; i < w.size(); ++i) {
    const engine::PlanSummary plan =
        optimizer.Optimize(w.query(i).bound, engine::Configuration());
    const exec::ExecutionResult run = executor.Execute(w.query(i).bound, plan);
    if (run.truncated) continue;
    est.push_back(plan.total_cost);
    work.push_back(static_cast<double>(run.row_ops));
    per_query.AddRow(w.query(i).tag,
                     {plan.total_cost, static_cast<double>(run.row_ops)});
  }
  per_query.Print("Calibration (a): estimated cost vs. executed row "
                  "operations, per TPC-H-like query",
                  csv);
  std::printf("\nPearson  corr(cost, work) = %.3f\n",
              PearsonCorrelation(est, work));
  std::printf("Spearman corr(cost, work) = %.3f\n",
              SpearmanCorrelation(est, work));

  // --- (b) estimated vs. executed improvement under a recommendation. ---
  std::vector<advisor::WeightedQuery> queries;
  for (size_t i = 0; i < w.size(); ++i) {
    queries.push_back({&w.query(i).bound, 1.0});
  }
  advisor::TuningOptions options;
  options.max_indexes = 16;
  advisor::DtaStyleAdvisor advisor(env.cost_model.get());
  const advisor::TuningResult tuned = advisor.Tune(queries, options);

  double est_before = 0.0, est_after = 0.0;
  double work_before = 0.0, work_after = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    const engine::PlanSummary base =
        optimizer.Optimize(w.query(i).bound, engine::Configuration());
    const engine::PlanSummary opt =
        optimizer.Optimize(w.query(i).bound, tuned.configuration);
    const exec::ExecutionResult base_run =
        executor.Execute(w.query(i).bound, base);
    const exec::ExecutionResult opt_run =
        executor.Execute(w.query(i).bound, opt);
    if (base_run.truncated || opt_run.truncated) continue;
    est_before += base.total_cost;
    est_after += opt.total_cost;
    work_before += static_cast<double>(base_run.row_ops);
    work_after += static_cast<double>(opt_run.row_ops);
  }
  eval::Table improvement({"metric", "improvement_pct"});
  improvement.AddRow("estimated (optimizer cost)",
                     {(est_before - est_after) / est_before * 100.0});
  improvement.AddRow("executed (row operations)",
                     {(work_before - work_after) / work_before * 100.0});
  improvement.Print("Calibration (b): estimated vs. executed improvement "
                    "under the recommended configuration",
                    csv);
  std::printf("\nExpected shape: strong positive correlation in (a); both "
              "improvement numbers in (b) positive and of the same "
              "magnitude.\n");
  return obs_scope.ExitCode();
}
