#ifndef ISUM_ENGINE_WHAT_IF_H_
#define ISUM_ENGINE_WHAT_IF_H_

#include <cstdint>

#include "common/deadline.h"
#include "common/status.h"
#include "engine/optimizer.h"
#include "obs/metrics.h"

namespace isum::engine {

/// Bounded retry-with-exponential-backoff around transient what-if
/// failures (Status::Unavailable — today only injected faults; a real
/// optimizer RPC would surface the same code). Backoff sleeps go through
/// SleepForNanos and are jittered deterministically (docs/ROBUSTNESS.md).
struct RetryPolicy {
  /// Total tries (1 = no retry). Each retry bumps "retry.attempts".
  int max_attempts = 4;
  /// First backoff; doubles per attempt (capped), jittered to [50%, 100%].
  uint64_t initial_backoff_nanos = 100'000;  // 100us
  uint64_t max_backoff_nanos = 10'000'000;   // 10ms
  double backoff_multiplier = 2.0;
  /// Jitter seed; fixed default so replays are bit-identical.
  uint64_t jitter_seed = 0xB0FFull;
};

/// The "what-if" API [15]: costs a query under a hypothetical index
/// configuration without building indexes. A thin wrapper around Optimizer
/// that adds what a real what-if backend needs around each invocation:
/// budget checks, the "whatif.cost" fault site with bounded retry, and
/// counters, so the advisor's call profile (Figure 2 of the paper) can be
/// measured.
///
/// Nothing is cached here. Repeated questions are avoided by the caller
/// instead: greedy enumeration carries a candidate's per-query costs from
/// one round to the next and re-costs only the queries whose tables the last
/// winner touched (advisor/enumerator.h). It reports those carried-over
/// answers through CountCarriedOver, so optimizer_calls() + cache_hits() is
/// the total number of what-if requests.
///
/// Thread-safe: Cost() may be called concurrently (the advisor evaluates
/// candidate configurations in parallel), also on one shared PreparedQuery;
/// the counters are atomics and the optimizer is stateless.
class WhatIfOptimizer {
 public:
  explicit WhatIfOptimizer(const CostModel* cost_model)
      : optimizer_(cost_model) {}

  /// Estimated cost of `query` under `config`. Infallible thin wrapper over
  /// TryCost: with no faults configured and no budget it cannot fail; under
  /// fault injection a persistent failure is a fatal contract violation
  /// (ISUM_CHECK_OK) — fault-aware callers (the advisors) use TryCost
  /// instead.
  double Cost(const sql::BoundQuery& query, const Configuration& config);

  /// Fallible what-if call: estimated cost of the prepared query under
  /// `config` (Optimizer::Optimize), observing `budget` and retrying
  /// transient failures per retry_policy(). The cost depends on `config`
  /// only through the indexes on the query's own tables. Optimizer time
  /// (optimizer_seconds) covers only this configuration-dependent planning.
  /// Error returns:
  ///   kDeadlineExceeded / kCancelled — `budget` ran out (checked before
  ///     the call and between retries; a backoff never sleeps past the
  ///     deadline);
  ///   kUnavailable — the fault site "whatif.cost" kept failing after
  ///     max_attempts tries.
  StatusOr<double> TryCost(const PreparedQuery& prepared,
                           const Configuration& config,
                           const TimeBudget& budget = {});

  /// TryCost(Optimizer::Prepare(query), config, budget). A loop that costs
  /// one query under many configurations prepares it once and calls the
  /// overload above instead.
  StatusOr<double> TryCost(const sql::BoundQuery& query,
                           const Configuration& config,
                           const TimeBudget& budget = {}) {
    return TryCost(Optimizer::Prepare(query), config, budget);
  }

  /// Full plan (use for explain output).
  PlanSummary Plan(const sql::BoundQuery& query,
                   const Configuration& config) const {
    return optimizer_.Optimize(query, config);
  }

  /// Records `requests` what-if requests the caller answered without an
  /// optimizer call, by reusing a cost it already holds for an identical
  /// question (class comment). Counted as cache_hits().
  void CountCarriedOver(uint64_t requests);

  /// Number of real optimizer invocations. Thin view over this instance's
  /// obs::Counter; the process-wide registry mirrors the same events under
  /// "whatif.optimizer_calls" (docs/OBSERVABILITY.md).
  uint64_t optimizer_calls() const { return optimizer_calls_.Value(); }
  /// Number of requests answered without an optimizer call
  /// (CountCarriedOver). Mirrored process-wide as "whatif.cache_hits". The
  /// "cache" names outlive the cache: BENCHMARK.json names the benchmark's
  /// engine.whatif_hits metric and benchmark/isum_bench.cc reads
  /// TuningResult::cache_hits, so all three are renamed together by a
  /// change that may edit benchmark/ (docs/OBSERVABILITY.md).
  uint64_t cache_hits() const { return cache_hits_.Value(); }
  /// Number of retries after transient what-if failures (0 unless fault
  /// injection or a flaky backend is active). Mirrored process-wide as
  /// "retry.attempts".
  uint64_t retry_attempts() const { return retry_attempts_.Value(); }
  /// Wall-clock seconds spent inside real optimizer invocations (the "time
  /// on optimizer calls" series of the paper's Figure 2a). Accumulated
  /// across threads (sums concurrent work, like CPU time).
  double optimizer_seconds() const {
    return static_cast<double>(optimizer_nanos_.Value()) * 1e-9;
  }

  /// Zeroes the per-instance counters with atomic stores. Must not be
  /// called concurrently with Cost(): a racing Cost() may split its
  /// increments across the reset, leaving counters mutually inconsistent
  /// (e.g. calls reset but its nanos kept). Quiesce callers first, as the
  /// advisors do between phases. The registry-wide mirrors are monotonic
  /// and unaffected.
  void ResetCounters() {
    optimizer_calls_.Reset();
    cache_hits_.Reset();
    retry_attempts_.Reset();
    optimizer_nanos_.Reset();
  }

  const RetryPolicy& retry_policy() const { return retry_policy_; }
  /// Replaces the retry policy. Not thread-safe against in-flight calls;
  /// set it before handing the optimizer to workers.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

 private:
  Optimizer optimizer_;
  RetryPolicy retry_policy_;
  obs::Counter optimizer_calls_;
  obs::Counter cache_hits_;
  obs::Counter retry_attempts_;
  obs::Counter optimizer_nanos_;
};

}  // namespace isum::engine

#endif  // ISUM_ENGINE_WHAT_IF_H_
