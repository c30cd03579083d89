#ifndef ISUM_ENGINE_WHAT_IF_H_
#define ISUM_ENGINE_WHAT_IF_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
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
/// configuration without building indexes. Results are memoized and
/// optimizer invocations are counted, so the advisor's call profile
/// (Figure 2 of the paper) can be measured.
///
/// Memo key: the query plus the ids of the configuration's indexes whose
/// table the query references, in configuration order, compared in full
/// (no hash stands in for the key). The key is exact: Optimizer reads a
/// configuration only through IndexesOnTable(t) for tables t of the query,
/// so two configurations with the same key hand the optimizer the same
/// per-table index lists, in the same order, and so the same tie-breaking
/// in BestAccessPath. The same projected set in another insertion order is
/// a distinct key (a miss, never a wrong answer). Indexes on tables the
/// query does not touch leave the key unchanged, which is what lets one
/// enumeration round reuse the previous rounds' answers.
///
/// Index ids come from an interning table owned by this instance: dense,
/// assigned on first sight, stable for the instance's lifetime (ClearCache
/// keeps them). Cache keys use query object identity: a BoundQuery must stay
/// at a stable address while a WhatIfOptimizer refers to it (Workload
/// guarantees this).
///
/// Thread-safe: Cost() may be called concurrently (the advisor evaluates
/// candidate configurations in parallel). The memo and the interning table
/// are each sharded 16 ways so cache-hit-heavy parallel phases don't
/// serialize on one mutex; the optimizer invocation itself runs outside any
/// lock, so concurrent misses on the same key may both optimize (the second
/// insert is a no-op).
class WhatIfOptimizer {
 public:
  explicit WhatIfOptimizer(const CostModel* cost_model)
      : optimizer_(cost_model) {}

  /// Estimated cost of `query` under `config` (memoized). Infallible thin
  /// wrapper over TryCost: with no faults configured and no budget it
  /// cannot fail; under fault injection a persistent failure is a fatal
  /// contract violation (ISUM_CHECK_OK) — fault-aware callers (the
  /// advisors) use TryCost instead.
  double Cost(const sql::BoundQuery& query, const Configuration& config);

  /// Fallible what-if call: estimated cost of `query` under `config`
  /// (memoized), observing `budget` and retrying transient failures per
  /// retry_policy(). Error returns:
  ///   kDeadlineExceeded / kCancelled — `budget` ran out (checked before
  ///     the call and between retries; a backoff never sleeps past the
  ///     deadline);
  ///   kUnavailable — the fault site "whatif.cost" kept failing after
  ///     max_attempts tries.
  /// Cache hits bypass fault injection and retries entirely: a memoized
  /// answer needs no optimizer invocation.
  StatusOr<double> TryCost(const sql::BoundQuery& query,
                           const Configuration& config,
                           const TimeBudget& budget = {});

  /// Full plan (not memoized; use for explain output).
  PlanSummary Plan(const sql::BoundQuery& query,
                   const Configuration& config) const {
    return optimizer_.Optimize(query, config);
  }

  /// Number of real optimizer invocations (cache misses). Thin view over
  /// this instance's obs::Counter; the process-wide registry mirrors the
  /// same events under "whatif.optimizer_calls" (docs/OBSERVABILITY.md).
  uint64_t optimizer_calls() const { return optimizer_calls_.Value(); }
  /// Number of calls answered from the cache.
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
  /// Drops every memoized answer. Interned index ids are kept: a racing
  /// Cost() may still hold ids it built its key from, and reassigning them
  /// could alias two different indexes.
  void ClearCache() {
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mutex);
      shard.cache.clear();
    }
  }

  const RetryPolicy& retry_policy() const { return retry_policy_; }
  /// Replaces the retry policy. Not thread-safe against in-flight calls;
  /// set it before handing the optimizer to workers.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

  /// One memoized what-if answer in checkpoint form. The query is named by
  /// a caller-stable id (its position in the enumeration's query vector) and
  /// each projected index by its position in the candidate pool, instead of
  /// the in-process pointer and interned ids the live memo keys on.
  struct CacheEntry {
    uint32_t query_id = 0;
    /// Pool positions of the key's indexes, in configuration order.
    std::vector<uint32_t> pool_ids;
    double cost = 0.0;
  };

  /// Snapshots the memo for checkpointing. `query_ids` maps a BoundQuery
  /// address to its stable id; entries for queries outside the map, or with
  /// an index outside `pool` (e.g. from another tuning phase), are skipped.
  /// Entry order is unspecified. Safe to call concurrently with Cost().
  std::vector<CacheEntry> ExportCache(
      const std::unordered_map<const void*, uint32_t>& query_ids,
      const std::vector<Index>& pool);

  /// Seeds the memo from a checkpoint: `entries[i].query_id` indexes into
  /// `queries` and `entries[i].pool_ids` into `pool`, which must hold the
  /// same logical queries and candidates (in the same order) the exporting
  /// run used. Entries with an out-of-range id are ignored. Restored costs
  /// are served as ordinary cache hits, so a resumed enumeration repeats no
  /// optimizer work for configurations the killed run already costed.
  void ImportCache(const std::vector<CacheEntry>& entries,
                   const std::vector<const sql::BoundQuery*>& queries,
                   const std::vector<Index>& pool);

 private:
  /// Memo key (class comment): query identity plus the interned ids of the
  /// projected indexes, in configuration order.
  struct Key {
    const void* query;
    std::vector<uint32_t> index_ids;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const noexcept;
  };

  static constexpr size_t kShards = 16;
  struct Shard {
    Mutex mutex;
    std::unordered_map<Key, double, KeyHash> cache ISUM_GUARDED_BY(mutex);
  };
  struct InternShard {
    Mutex mutex;
    std::unordered_map<Index, uint32_t> ids ISUM_GUARDED_BY(mutex);
  };

  Key MakeKey(const sql::BoundQuery& query, const Configuration& config);
  Shard& ShardFor(const Key& key);
  InternShard& InternShardFor(const Index& index);
  /// Id of `index`, assigning the next free id on first sight.
  uint32_t Intern(const Index& index);

  Optimizer optimizer_;
  RetryPolicy retry_policy_;
  std::array<Shard, kShards> shards_;
  std::array<InternShard, kShards> intern_shards_;
  std::atomic<uint32_t> next_index_id_{0};
  obs::Counter optimizer_calls_;
  obs::Counter cache_hits_;
  obs::Counter retry_attempts_;
  obs::Counter optimizer_nanos_;
};

}  // namespace isum::engine

#endif  // ISUM_ENGINE_WHAT_IF_H_
