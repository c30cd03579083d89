#include "eval/pipeline.h"

#include "common/deadline.h"
#include "engine/optimizer.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace isum::eval {

double WorkloadImprovementPercent(const workload::Workload& workload,
                                  const engine::Configuration& config) {
  const double base = workload.TotalCost();
  if (base <= 0.0) return 0.0;
  engine::Optimizer optimizer(workload.env().cost_model);
  double tuned = 0.0;
  for (size_t i = 0; i < workload.size(); ++i) {
    tuned += optimizer.Cost(workload.query(i).bound, config);
  }
  return (base - tuned) / base * 100.0;
}

EvaluationResult RunPipeline(const workload::Workload& workload,
                             const workload::CompressedWorkload& compressed,
                             const TunerFn& tuner, std::string algorithm_name) {
  EvaluationResult result;
  result.algorithm = std::move(algorithm_name);
  result.k = compressed.size();
  result.compressed = compressed;

  std::vector<advisor::WeightedQuery> queries;
  queries.reserve(compressed.entries.size());
  for (const auto& e : compressed.entries) {
    queries.push_back({&workload.query(e.query_index).bound, e.weight});
  }

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const uint64_t start_nanos = MonotonicNanos();
  {
    ISUM_TRACE_SPAN("pipeline/tune");
    result.tuning = tuner(queries);
  }
  result.tuning_seconds =
      static_cast<double>(MonotonicNanos() - start_nanos) * 1e-9;
  {
    ISUM_TRACE_SPAN("pipeline/evaluate");
    result.improvement_percent =
        WorkloadImprovementPercent(workload, result.tuning.configuration);
  }
  // First early stop along the pipeline wins: a truncated compression is
  // upstream of (and explains) whatever the tuner then did.
  result.stop_reason = compressed.stop_reason != StopReason::kComplete
                           ? compressed.stop_reason
                           : result.tuning.stop_reason;
  result.metrics = obs::MetricsSnapshot::Delta(
      before, obs::MetricsRegistry::Global().Snapshot());
  if (obs::journal::Enabled()) {
    // Post-eval attribution: for every selected query, the benefit greedy
    // selection estimated vs. the cost reduction the recommended
    // configuration realized on it (base cost minus cost under the final
    // configuration, weighted like the tuner saw it).
    engine::Optimizer optimizer(workload.env().cost_model);
    for (const auto& e : compressed.entries) {
      const workload::QueryInfo& q = workload.query(e.query_index);
      const double realized =
          q.base_cost -
          optimizer.Cost(q.bound, result.tuning.configuration);
      obs::journal::Attribution(e.query_index, e.weight, e.selection_benefit,
                                realized);
    }
    // PipelineEnd flushes eagerly when stop_reason is abnormal, so a
    // deadline-killed run still leaves its decisions on disk.
    obs::journal::PipelineEnd(result.algorithm.c_str(), result.k,
                              result.improvement_percent,
                              StopReasonToString(result.stop_reason));
  }
  return result;
}

TunerFn MakeDtaTuner(const workload::Workload& workload,
                     const advisor::TuningOptions& options) {
  const engine::CostModel* cm = workload.env().cost_model;
  return [cm, options](const std::vector<advisor::WeightedQuery>& queries) {
    return advisor::DtaStyleAdvisor(cm).Tune(queries, options);
  };
}

TunerFn MakeDexterTuner(const workload::Workload& workload,
                        const advisor::DexterOptions& options) {
  const engine::CostModel* cm = workload.env().cost_model;
  return [cm, options](const std::vector<advisor::WeightedQuery>& queries) {
    return advisor::DexterStyleAdvisor(cm).Tune(queries, options);
  };
}

}  // namespace isum::eval
