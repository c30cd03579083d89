#ifndef ISUM_ADVISOR_ADVISOR_H_
#define ISUM_ADVISOR_ADVISOR_H_

#include <cstdint>
#include <vector>

#include "advisor/candidate_generation.h"
#include "common/checkpoint.h"
#include "common/deadline.h"
#include "engine/what_if.h"

namespace isum::advisor {

/// One query handed to an advisor, with its compressed-workload weight.
struct WeightedQuery {
  const sql::BoundQuery* query = nullptr;
  double weight = 1.0;
};

/// Advisor knobs (mirroring the constraints varied in the paper's §8:
/// configuration size, storage budget).
struct TuningOptions {
  /// Maximum number of recommended indexes (configuration size m).
  int max_indexes = 20;
  /// Storage budget as a multiple of the total base-data size. DTA's
  /// default is 3x the database size (paper §8.1).
  double storage_budget_multiplier = 3.0;
  /// Explicit storage budget in bytes; overrides the multiplier when > 0.
  uint64_t storage_budget_bytes = 0;
  /// Per-query candidates kept after candidate selection.
  int max_candidates_per_query = 12;
  /// Keep a candidate only if it improves its query by this fraction.
  double min_improvement = 0.0;
  /// Anytime tuning (DTA's time-budget mode, paper §1/§10): stop candidate
  /// selection and enumeration once this many seconds have elapsed and
  /// return the best configuration found so far. 0 = no budget.
  double time_budget_seconds = 0.0;
  /// Deadline/cancellation for the whole run. Combined with
  /// time_budget_seconds (whichever expires first wins); when unlimited the
  /// ambient process budget applies (common/deadline.h). Candidate selection
  /// gets at most half the remaining time so enumeration always runs.
  TimeBudget budget;
  /// Worker threads for candidate evaluation during enumeration (what-if
  /// calls are independent). Results are identical for any thread count —
  /// except when combined with time_budget_seconds, where the anytime
  /// cutoff lands on whatever work finished first.
  int num_threads = 1;
  CandidateGenOptions candidate_options;
  /// Crash-safe checkpoint/resume for the enumeration phase (the dominant
  /// cost of a tuning run). Disabled when path is empty; falls back to the
  /// ambient config installed by bench drivers via --checkpoint=
  /// (common/checkpoint.h, docs/ROBUSTNESS.md).
  CheckpointConfig checkpoint;
};

/// Outcome of one tuning run, with the call accounting the scalability
/// experiments (Figure 2) report.
struct TuningResult {
  engine::Configuration configuration;
  uint64_t optimizer_calls = 0;
  /// What-if requests answered without an optimizer invocation: costs
  /// greedy enumeration carried over from the previous round. Together with
  /// optimizer_calls, the total number of what-if requests. The name
  /// predates the removal of the what-if cache; it stays because
  /// benchmark/isum_bench.cc reads it, and renaming it (with
  /// "whatif.cache_hits" and the benchmark's engine.whatif_hits) waits for
  /// a change that may edit benchmark/ (docs/OBSERVABILITY.md).
  uint64_t cache_hits = 0;
  uint64_t configurations_explored = 0;
  /// Seconds spent in real optimizer invocations (Figure 2a series).
  double optimizer_seconds = 0.0;
  /// Weighted cost of the tuned workload before/after recommendation.
  double initial_cost = 0.0;
  double final_cost = 0.0;
  double elapsed_seconds = 0.0;
  /// What-if retries performed under fault injection (retry.attempts).
  uint64_t retry_attempts = 0;
  /// kComplete, or why tuning stopped early — the configuration is then the
  /// best found before the cutoff and always valid (docs/ROBUSTNESS.md).
  StopReason stop_reason = StopReason::kComplete;
};

/// A DTA-style index advisor (Figure 1 of the paper): syntactic candidate
/// generation -> per-query candidate selection via what-if calls -> greedy
/// configuration enumeration under count and storage constraints, honoring
/// query weights.
class DtaStyleAdvisor {
 public:
  explicit DtaStyleAdvisor(const engine::CostModel* cost_model)
      : cost_model_(cost_model) {}

  /// Recommends a configuration for the weighted workload.
  TuningResult Tune(const std::vector<WeightedQuery>& queries,
                    const TuningOptions& options = {}) const;

 private:
  const engine::CostModel* cost_model_;
};

}  // namespace isum::advisor

#endif  // ISUM_ADVISOR_ADVISOR_H_
