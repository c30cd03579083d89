// Figure 12: sensitivity to workload characteristics on the DSB-like
// benchmark.
//   12a: improvement vs. instances-per-template (fixed k).
//   12b-d: improvement vs. k for the SPJ / Aggregate / Complex query classes.
// Paper shape: ISUM stable as instance counts grow (GSUM improves, Cost
// degrades); aggregate-only queries see smaller, flatter improvements.

#include <cmath>
#include <cstdio>

#include "bench_util.h"

using namespace isum;

int main(int argc, char** argv) {
  isum::bench::ObsScope obs_scope(argc, argv);
  const bool csv = obs_scope.flags().csv;
  const double scale = obs_scope.flags().scale;
  const int mul = scale >= 2.0 ? 2 : 1;

  // --- 12a: varying instances per template. ---
  {
    std::vector<std::string> headers = {"instances_per_template"};
    const auto compressors = bench::StandardCompressors();
    for (const auto& c : compressors) headers.push_back(c->name());
    eval::Table table(std::move(headers));
    for (int instances : {1, 2, 4, 8}) {
      workload::GeneratorOptions gen;
      gen.instances_per_template = instances * mul;
      workload::GeneratedWorkload env = workload::MakeDsb(gen);
      const size_t k = std::max<size_t>(
          2, static_cast<size_t>(
                 std::sqrt(static_cast<double>(env.workload->size()))));
      advisor::TuningOptions tuning;
      tuning.max_indexes = 20;
      const eval::TunerFn tuner = eval::MakeDtaTuner(*env.workload, tuning);
      std::vector<double> row;
      for (const auto& c : compressors) {
        row.push_back(eval::RunPipeline(*env.workload,
                                        c->Compress(*env.workload, k), tuner,
                                        c->name())
                          .improvement_percent);
      }
      table.AddRow(StrFormat("%d", instances * mul), row);
    }
    table.Print("Figure 12a (DSB-like): improvement % vs. instances per "
                "template (k = sqrt(n))",
                csv);
  }

  // --- 12b-d: per-class sweeps. ---
  const struct {
    workload::DsbClass cls;
    const char* label;
  } classes[] = {{workload::DsbClass::kSpj, "12b SPJ"},
                 {workload::DsbClass::kAggregate, "12c Aggregate"},
                 {workload::DsbClass::kComplex, "12d Complex"}};
  for (const auto& [cls, label] : classes) {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 4 * mul;
    workload::GeneratedWorkload env = workload::MakeDsb(gen, cls);
    advisor::TuningOptions tuning;
    tuning.max_indexes = 20;
    const eval::TunerFn tuner = eval::MakeDtaTuner(*env.workload, tuning);
    const auto compressors = bench::StandardCompressors();
    eval::Table table = bench::CompareCompressors(
        env, compressors, {2, 4, 8, 16}, tuner);
    table.Print(StrFormat("Figure %s (DSB-like, n=%zu): improvement %% vs. k",
                          label, env.workload->size()),
                csv);
  }
  return obs_scope.ExitCode();
}
