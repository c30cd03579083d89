#include "advisor/dexter_advisor.h"

#include <algorithm>
#include <unordered_map>

#include "common/deadline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace isum::advisor {

TuningResult DexterStyleAdvisor::Tune(const std::vector<WeightedQuery>& queries,
                                      const DexterOptions& options) const {
  ISUM_TRACE_SPAN("advisor/tune");
  static obs::Counter* const tuning_runs =
      obs::MetricsRegistry::Global().GetCounter("advisor.tuning_runs");
  tuning_runs->Add(1);
  const uint64_t start_nanos = MonotonicNanos();
  TuningResult result;
  engine::WhatIfOptimizer what_if(cost_model_);
  const stats::StatsManager& stats = cost_model_->stats();
  const TimeBudget budget = EffectiveBudget(options.budget);

  // Accumulated benefit per chosen index across queries (for truncation).
  std::unordered_map<engine::Index, double> chosen;

  double initial = 0.0;
  double final_cost = 0.0;
  bool stopped = false;
  for (const WeightedQuery& wq : queries) {
    // Query boundaries are the cooperative stop points: the queries tuned so
    // far still merge into a valid recommendation.
    const Status query_check = budget.CheckCancelled();
    if (!query_check.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(query_check);
      break;
    }
    const engine::PreparedQuery prepared =
        engine::Optimizer::Prepare(*wq.query);
    const StatusOr<double> base_or =
        what_if.TryCost(prepared, engine::Configuration(), budget);
    if (!base_or.ok()) {
      if (base_or.status().code() == StatusCode::kUnavailable) {
        continue;  // persistent fault on this query: tune the others
      }
      result.stop_reason = TimeBudget::ReasonFor(base_or.status());
      break;
    }
    const double base = *base_or;
    initial += wq.weight * base;

    // DEXTER-like candidates: single-column and two-column (filter, join)
    // key indexes only — no include lists, no multi-clause rules.
    CandidateGenOptions gen;
    gen.max_key_columns = 2;
    gen.covering_variants = false;
    std::vector<engine::Index> candidates =
        GenerateCandidates(*wq.query, stats, gen);

    // Local greedy: keep adding the best single candidate for *this query*
    // while it clears the minimum improvement bar.
    engine::Configuration local;
    double current = base;
    while (!stopped) {
      double best_improvement = 0.0;
      const engine::Index* best = nullptr;
      for (const engine::Index& c : candidates) {
        if (local.Contains(c)) continue;
        engine::Configuration trial = local;
        trial.Add(c);
        ++result.configurations_explored;
        const StatusOr<double> cost = what_if.TryCost(prepared, trial, budget);
        if (!cost.ok()) {
          if (cost.status().code() == StatusCode::kUnavailable) {
            continue;  // candidate uncostable: treat as non-improving
          }
          result.stop_reason = TimeBudget::ReasonFor(cost.status());
          stopped = true;
          break;
        }
        const double improvement = current - *cost;
        if (improvement > best_improvement) {
          best_improvement = improvement;
          best = &c;
        }
      }
      if (best == nullptr || best_improvement < options.min_improvement * base) {
        break;
      }
      local.Add(*best);
      current -= best_improvement;
      chosen[*best] += wq.weight * best_improvement;
    }
    final_cost += wq.weight * current;
    if (stopped) break;
  }

  // Union of local picks; truncate to the most beneficial if capped.
  std::vector<std::pair<double, engine::Index>> ranked;
  ranked.reserve(chosen.size());
  for (const auto& [index, benefit] : chosen) ranked.emplace_back(benefit, index);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const size_t cap = options.max_indexes > 0
                         ? static_cast<size_t>(options.max_indexes)
                         : ranked.size();
  for (size_t i = 0; i < std::min(cap, ranked.size()); ++i) {
    result.configuration.Add(ranked[i].second);
  }

  result.initial_cost = initial;
  result.final_cost = final_cost;
  result.optimizer_calls = what_if.optimizer_calls();
  result.cache_hits = what_if.cache_hits();
  result.optimizer_seconds = what_if.optimizer_seconds();
  result.retry_attempts = what_if.retry_attempts();
  result.elapsed_seconds =
      static_cast<double>(MonotonicNanos() - start_nanos) * 1e-9;
  return result;
}

}  // namespace isum::advisor
