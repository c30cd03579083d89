#include "engine/what_if.h"

#include <algorithm>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace isum::engine {

namespace {

/// Process-wide mirrors of the per-instance counters, aggregated across
/// every WhatIfOptimizer in the process (metric names in
/// docs/OBSERVABILITY.md). Pointers are cached once; the registry owns them.
struct WhatIfMetrics {
  obs::Counter* calls;
  obs::Counter* hits;
  obs::Counter* skipped;
  obs::Counter* retries;
  obs::Histogram* optimize_nanos;

  static const WhatIfMetrics& Get() {
    static const WhatIfMetrics m = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return WhatIfMetrics{registry.GetCounter("whatif.optimizer_calls"),
                           registry.GetCounter("whatif.cache_hits"),
                           registry.GetCounter("whatif.skipped_unusable"),
                           registry.GetCounter("retry.attempts"),
                           registry.GetHistogram("whatif.optimize_nanos")};
    }();
    return m;
  }
};

/// Backoff before retry number `attempt` (1-based): exponential with cap,
/// jittered deterministically to [50%, 100%] of the nominal value so
/// replays with a fixed seed are bit-identical.
uint64_t BackoffNanos(const RetryPolicy& policy, int attempt) {
  double nominal = static_cast<double>(policy.initial_backoff_nanos);
  for (int i = 1; i < attempt; ++i) nominal *= policy.backoff_multiplier;
  nominal = std::min(nominal, static_cast<double>(policy.max_backoff_nanos));
  Rng rng(policy.jitter_seed ^ static_cast<uint64_t>(attempt));
  return static_cast<uint64_t>(nominal * (0.5 + 0.5 * rng.NextDouble()));
}

}  // namespace

double WhatIfOptimizer::Cost(const sql::BoundQuery& query,
                             const Configuration& config) {
  StatusOr<double> cost = TryCost(query, config);
  ISUM_CHECK_OK(cost);
  return *cost;
}

StatusOr<double> WhatIfOptimizer::TryCost(const PreparedQuery& prepared,
                                          const Configuration& config,
                                          const TimeBudget& budget) {
  const WhatIfMetrics& metrics = WhatIfMetrics::Get();
  ISUM_RETURN_IF_ERROR(budget.CheckCancelled());

  // Bounded retry around transient failures from the "whatif.cost" fault
  // site.
  const int max_attempts = std::max(1, retry_policy_.max_attempts);
  for (int attempt = 1;; ++attempt) {
    const Status fault = ISUM_FAULT_POINT("whatif.cost");
    if (fault.ok()) break;
    if (fault.code() != StatusCode::kUnavailable || attempt >= max_attempts) {
      // Surfaced to the caller: persistent failure or retries exhausted.
      obs::journal::Fault("whatif.cost", StatusCodeToString(fault.code()));
      return fault;
    }
    retry_attempts_.Add(1);
    metrics.retries->Add(1);
    uint64_t backoff = BackoffNanos(retry_policy_, attempt);
    // Never sleep past the deadline; re-check the budget after waking.
    backoff = std::min(backoff, budget.deadline().remaining_nanos());
    obs::journal::Retry("whatif.cost", static_cast<uint64_t>(attempt),
                        backoff);
    if (backoff > 0) SleepForNanos(backoff);
    ISUM_RETURN_IF_ERROR(budget.CheckCancelled());
  }

  uint64_t nanos = 0;
  double cost = 0.0;
  {
    ISUM_TRACE_SPAN("whatif/optimize");
    const uint64_t start = MonotonicNanos();
    cost = optimizer_.Cost(prepared, config);
    const uint64_t end = MonotonicNanos();
    nanos = end >= start ? end - start : 0;
  }
  optimizer_calls_.Add(1);
  optimizer_nanos_.Add(nanos);
  metrics.calls->Add(1);
  metrics.optimize_nanos->Observe(nanos);
  return cost;
}

void WhatIfOptimizer::CountCarriedOver(uint64_t requests) {
  if (requests == 0) return;
  cache_hits_.Add(requests);
  WhatIfMetrics::Get().hits->Add(requests);
}

void WhatIfOptimizer::CountSkipped(uint64_t requests) {
  if (requests == 0) return;
  skipped_.Add(requests);
  WhatIfMetrics::Get().skipped->Add(requests);
}

}  // namespace isum::engine
