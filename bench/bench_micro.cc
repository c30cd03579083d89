// Microbenchmarks (google-benchmark) for the hot paths: SQL parsing,
// featurization, weighted Jaccard, summary construction, what-if costing,
// advisor tuning, and end-to-end compression.

#include <benchmark/benchmark.h>

#include "advisor/advisor.h"
#include "bench_util.h"
#include "core/incremental.h"
#include "core/isum.h"
#include "engine/what_if.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

const workload::GeneratedWorkload& TpchEnv() {
  static workload::GeneratedWorkload* env = [] {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 8;
    return new workload::GeneratedWorkload(workload::MakeTpch(gen));
  }();
  return *env;
}

void BM_ParseSelect(benchmark::State& state) {
  const std::string sql = TpchEnv().workload->query(2).sql;
  for (auto _ : state) {
    auto result = sql::ParseSelect(sql);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ParseSelect);

void BM_Featurize(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::FeatureSpace space;
  core::Featurizer featurizer(env.catalog.get(), env.stats.get(), &space);
  const sql::BoundQuery& q = env.workload->query(2).bound;
  for (auto _ : state) {
    auto v = featurizer.Featurize(q);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_Featurize);

const workload::GeneratedWorkload& TpcdsEnv() {
  static workload::GeneratedWorkload* env = [] {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 50;
    return new workload::GeneratedWorkload(workload::MakeTpcds(gen));
  }();
  return *env;
}

// Featurizing a TPC-DS workload (50 instances per template) query by query,
// against FeaturizeWorkload's one Featurize per feature class.
void BM_FeaturizeEach(benchmark::State& state) {
  const workload::Workload& w = *TpcdsEnv().workload;
  for (auto _ : state) {
    core::FeatureSpace space;
    const core::Featurizer featurizer(w.env().catalog, w.env().stats, &space);
    std::vector<core::SparseVector> rows;
    rows.reserve(w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      rows.push_back(featurizer.Featurize(w.query(i).bound));
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.size()));
}
BENCHMARK(BM_FeaturizeEach)->Unit(benchmark::kMillisecond);

void BM_FeaturizeWorkload(benchmark::State& state) {
  const workload::Workload& w = *TpcdsEnv().workload;
  for (auto _ : state) {
    core::FeatureSpace space;
    auto features = core::FeaturizeWorkload(w, {}, &space);
    benchmark::DoNotOptimize(features);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.size()));
}
BENCHMARK(BM_FeaturizeWorkload)->Unit(benchmark::kMillisecond);

void BM_WeightedJaccard(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::CompressionState cs(*env.workload, {}, core::UtilityMode::kCostOnly);
  for (auto _ : state) {
    double total = 0.0;
    for (size_t j = 1; j < 32; ++j) total += cs.Similarity(0, j);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_WeightedJaccard);

void BM_WeightedJaccardBatch(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::CompressionState cs(*env.workload, {}, core::UtilityMode::kCostOnly);
  std::vector<core::SparseVector> rows;
  for (size_t i = 0; i < cs.size(); ++i) rows.push_back(cs.features(i));
  const core::FeatureMatrix matrix =
      core::FeatureMatrix::FromVectors(rows, cs.feature_space().size());
  core::DenseScratch scratch;
  std::vector<double> out(matrix.rows());
  for (auto _ : state) {
    matrix.ScatterRow(0, &scratch);
    matrix.WeightedJaccardBatch(scratch, 0, matrix.rows(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(matrix.rows()));
}
BENCHMARK(BM_WeightedJaccardBatch);

void BM_BinaryJaccardBatch(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::CompressionState cs(*env.workload, {}, core::UtilityMode::kCostOnly);
  std::vector<core::SparseVector> rows;
  for (size_t i = 0; i < cs.size(); ++i) rows.push_back(cs.features(i));
  const core::FeatureMatrix matrix =
      core::FeatureMatrix::FromVectors(rows, cs.feature_space().size());
  core::DenseScratch scratch;
  std::vector<double> out(matrix.rows());
  for (auto _ : state) {
    matrix.ScatterRow(0, &scratch);
    matrix.BinaryJaccardBatch(scratch, 0, matrix.rows(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(matrix.rows()));
}
BENCHMARK(BM_BinaryJaccardBatch);

// The scratch-reuse AddScaled overload vs. the allocating one, on the
// summary-accumulation access pattern (one running sum += many vectors).
void BM_AddScaledAlloc(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::CompressionState cs(*env.workload, {}, core::UtilityMode::kCostOnly);
  for (auto _ : state) {
    core::SparseVector sum;
    for (size_t i = 0; i < cs.size(); ++i) {
      sum.AddScaled(cs.features(i), cs.utility(i));
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AddScaledAlloc);

void BM_AddScaledScratch(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::CompressionState cs(*env.workload, {}, core::UtilityMode::kCostOnly);
  std::vector<core::SparseVector::Entry> scratch;
  for (auto _ : state) {
    core::SparseVector sum;
    for (size_t i = 0; i < cs.size(); ++i) {
      sum.AddScaled(cs.features(i), cs.utility(i), &scratch);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AddScaledScratch);

void BM_SummaryConstruction(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::CompressionState cs(*env.workload, {}, core::UtilityMode::kCostOnly);
  for (auto _ : state) {
    auto v = core::ComputeSummaryFeatures(cs);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SummaryConstruction);

/// The first TPC-H query joining at least four tables, with a
/// configuration of its own candidate indexes, so every what-if call
/// chooses seeks and index nested loops as well as a join order.
struct WhatIfCase {
  const sql::BoundQuery* query = nullptr;
  engine::Configuration config;
};

const WhatIfCase& MultiJoinCase() {
  static const WhatIfCase* c = [] {
    const auto& env = TpchEnv();
    auto* out = new WhatIfCase;
    for (size_t i = 0; i < env.workload->size(); ++i) {
      const sql::BoundQuery& q = env.workload->query(i).bound;
      if (q.tables.size() < 4) continue;
      out->query = &q;
      out->config = engine::Configuration(
          advisor::GenerateCandidates(q, *env.stats));
      break;
    }
    return out;
  }();
  return *c;
}

// One what-if call as a caller that costs the query once makes it:
// Optimize(Prepare(query), config).
void BM_WhatIfCost(benchmark::State& state) {
  const WhatIfCase& c = MultiJoinCase();
  engine::Optimizer optimizer(TpchEnv().cost_model.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.Cost(*c.query, c.config));
  }
}
BENCHMARK(BM_WhatIfCost);

// The same call with the query prepared once, as the advisors make it;
// the gap to BM_WhatIfCost is the configuration-independent setup.
void BM_WhatIfCostPrepared(benchmark::State& state) {
  const WhatIfCase& c = MultiJoinCase();
  engine::Optimizer optimizer(TpchEnv().cost_model.get());
  const engine::PreparedQuery prepared = engine::Optimizer::Prepare(*c.query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.Cost(prepared, c.config));
  }
}
BENCHMARK(BM_WhatIfCostPrepared);

void BM_CompressSummary(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::Isum isum(env.workload.get());
  for (auto _ : state) {
    auto compressed = isum.Compress(static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(compressed);
  }
}
BENCHMARK(BM_CompressSummary)->Arg(4)->Arg(16);

void BM_CompressAllPairs(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::IsumOptions options;
  options.algorithm = core::SelectionAlgorithm::kAllPairs;
  core::Isum isum(env.workload.get(), options);
  for (auto _ : state) {
    auto compressed = isum.Compress(static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(compressed);
  }
}
BENCHMARK(BM_CompressAllPairs)->Arg(4)->Arg(16);

void BM_IncrementalObserveBatch(benchmark::State& state) {
  const auto& env = TpchEnv();
  for (auto _ : state) {
    core::IncrementalIsum inc(env.workload.get(), 8);
    for (size_t begin = 0; begin < env.workload->size(); begin += 16) {
      inc.ObserveBatch(begin,
                       std::min(env.workload->size(), begin + 16));
    }
    benchmark::DoNotOptimize(inc.Current());
  }
}
BENCHMARK(BM_IncrementalObserveBatch);

void BM_ExecuteScanQuery(benchmark::State& state) {
  static exec::Database* db = [] {
    auto* d = new exec::Database(TpchEnv().catalog.get(), TpchEnv().stats.get());
    d->MaterializeAll(20'000, 5);
    return d;
  }();
  exec::Executor executor(db);
  engine::Optimizer optimizer(TpchEnv().cost_model.get());
  const sql::BoundQuery& q = TpchEnv().workload->query(5).bound;  // Q1 shape
  const engine::PlanSummary plan = optimizer.Optimize(q, engine::Configuration());
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Execute(q, plan));
  }
}
BENCHMARK(BM_ExecuteScanQuery);

void BM_AdvisorTuneCompressed(benchmark::State& state) {
  const auto& env = TpchEnv();
  core::Isum isum(env.workload.get());
  const auto compressed = isum.Compress(8);
  std::vector<advisor::WeightedQuery> queries;
  for (const auto& e : compressed.entries) {
    queries.push_back({&env.workload->query(e.query_index).bound, e.weight});
  }
  advisor::DtaStyleAdvisor advisor(env.cost_model.get());
  advisor::TuningOptions options;
  options.max_indexes = 10;
  for (auto _ : state) {
    auto result = advisor.Tune(queries, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AdvisorTuneCompressed);

// On multi-core machines /4 approaches linear speedup (candidate evaluations
// share no state); on a single-core host it only measures pool overhead.
void BM_AdvisorTuneParallel(benchmark::State& state) {
  const auto& env = TpchEnv();
  std::vector<advisor::WeightedQuery> queries;
  for (size_t i = 0; i < env.workload->size(); ++i) {
    queries.push_back({&env.workload->query(i).bound, 1.0});
  }
  advisor::DtaStyleAdvisor advisor(env.cost_model.get());
  advisor::TuningOptions options;
  options.max_indexes = 10;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = advisor.Tune(queries, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AdvisorTuneParallel)->Arg(1)->Arg(4);

}  // namespace
}  // namespace isum

// BENCHMARK_MAIN() plus the shared bench flags: google-benchmark takes its
// own --benchmark_* flags out of argv first, then ObsScope parses the rest
// and exits 2 on anything neither knows.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  isum::bench::ObsScope obs_scope(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return obs_scope.ExitCode();
}
