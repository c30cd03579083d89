#include "advisor/advisor.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "advisor/enumerator.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace isum::advisor {

namespace {

/// Budget for candidate selection: half the remaining time (DTA's split, so
/// enumeration always sees some candidates), same cancellation token.
TimeBudget SelectionBudget(const TimeBudget& full) {
  if (full.deadline().unlimited()) return full;
  const uint64_t remaining = full.deadline().remaining_nanos();
  return TimeBudget(Deadline::AtNanos(MonotonicNanos() + remaining / 2),
                    full.token());
}

}  // namespace

TuningResult DtaStyleAdvisor::Tune(const std::vector<WeightedQuery>& queries,
                                   const TuningOptions& options) const {
  ISUM_TRACE_SPAN("advisor/tune");
  static obs::Counter* const tuning_runs =
      obs::MetricsRegistry::Global().GetCounter("advisor.tuning_runs");
  tuning_runs->Add(1);
  const uint64_t start_nanos = MonotonicNanos();
  TuningResult result;
  if (queries.empty()) return result;

  engine::WhatIfOptimizer what_if(cost_model_);
  const catalog::Catalog& catalog = cost_model_->catalog();

  const TimeBudget budget = EffectiveBudget(options.budget);
  const TimeBudget selection_budget = SelectionBudget(budget);

  // --- Candidate selection: per query, keep the individually improving
  // candidates (top max_candidates_per_query by improvement). Queries are
  // independent, so this parallelizes; the pool merge below stays in query
  // order so results are identical for any thread count. A query whose base
  // costing fails (budget expiry or a persistent injected fault) contributes
  // no candidates; a single candidate whose costing fails is skipped. When
  // the budget cuts selection short, the pool misses candidates, so the run
  // is tagged with the budget's stop reason even if enumeration completes.
  std::vector<std::vector<engine::Index>> kept_per_query(queries.size());
  std::atomic<uint64_t> explored{0};
  std::atomic<bool> selection_truncated{false};
  auto select_for = [&](size_t q) {
    if (selection_budget.Expired()) {
      selection_truncated.store(true, std::memory_order_relaxed);
      return;  // anytime: later queries contribute no candidates
    }
    const WeightedQuery& wq = queries[q];
    const engine::PreparedQuery prepared =
        engine::Optimizer::Prepare(*wq.query);
    const StatusOr<double> base_or =
        what_if.TryCost(prepared, engine::Configuration(), selection_budget);
    if (!base_or.ok()) {
      if (base_or.status().code() != StatusCode::kUnavailable) {
        selection_truncated.store(true, std::memory_order_relaxed);
      }
      return;
    }
    const double base = *base_or;
    std::vector<engine::Index> candidates =
        GenerateCandidates(*wq.query, cost_model_->stats(),
                           options.candidate_options, selection_budget);
    std::vector<std::pair<double, size_t>> improving;
    for (size_t i = 0; i < candidates.size(); ++i) {
      engine::Configuration single;
      single.Add(candidates[i]);
      explored.fetch_add(1, std::memory_order_relaxed);
      const StatusOr<double> cost =
          what_if.TryCost(prepared, single, selection_budget);
      if (!cost.ok()) {
        if (cost.status().code() == StatusCode::kUnavailable) continue;
        selection_truncated.store(true, std::memory_order_relaxed);
        break;  // budget expired: keep what this query has so far
      }
      const double improvement = base - *cost;
      if (improvement > options.min_improvement * base &&
          improvement > 0.0) {
        improving.emplace_back(improvement, i);
      }
    }
    std::sort(improving.begin(), improving.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    const size_t keep = std::min<size_t>(
        improving.size(), static_cast<size_t>(options.max_candidates_per_query));
    for (size_t r = 0; r < keep; ++r) {
      kept_per_query[q].push_back(candidates[improving[r].second]);
    }
  };
  {
    ISUM_TRACE_SPAN("advisor/candidate-gen");
    if (options.num_threads > 1) {
      ThreadPool(static_cast<size_t>(options.num_threads))
          .ParallelFor(queries.size(), select_for, budget.token());
    } else {
      for (size_t q = 0; q < queries.size(); ++q) select_for(q);
    }
  }
  result.configurations_explored += explored.load();

  std::vector<engine::Index> pool;
  std::unordered_set<engine::Index> pool_set;
  for (const auto& kept : kept_per_query) {
    for (const engine::Index& idx : kept) {
      if (pool_set.insert(idx).second) pool.push_back(idx);
    }
  }

  // --- Storage budget. ---
  uint64_t storage_budget = options.storage_budget_bytes;
  if (storage_budget == 0 && options.storage_budget_multiplier > 0.0) {
    storage_budget =
        static_cast<uint64_t>(options.storage_budget_multiplier *
                              static_cast<double>(catalog.total_data_bytes()));
  }

  // --- Greedy enumeration. ---
  EnumerationResult enumerated = GreedyEnumerate(
      what_if, queries, pool, options.max_indexes, storage_budget, catalog,
      budget, options.num_threads, options.checkpoint);

  result.configuration = std::move(enumerated.configuration);
  result.configurations_explored += enumerated.configurations_explored;
  result.initial_cost = enumerated.initial_cost;
  result.final_cost = enumerated.final_cost;
  result.stop_reason = enumerated.stop_reason;
  if (result.stop_reason == StopReason::kComplete &&
      selection_truncated.load()) {
    // Only the budget truncates selection, and an expired or cancelled
    // budget stays so.
    result.stop_reason =
        TimeBudget::ReasonFor(selection_budget.CheckCancelled());
    NoteStopReason(result.stop_reason);
  }
  result.optimizer_calls = what_if.optimizer_calls();
  result.cache_hits = what_if.cache_hits();
  result.skipped = what_if.skipped();
  result.optimizer_seconds = what_if.optimizer_seconds();
  result.retry_attempts = what_if.retry_attempts();
  result.elapsed_seconds =
      static_cast<double>(MonotonicNanos() - start_nanos) * 1e-9;
  return result;
}

}  // namespace isum::advisor
