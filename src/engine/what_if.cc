#include "engine/what_if.h"

#include <algorithm>

#include "common/check.h"
#include "common/fault.h"
#include "common/hash.h"
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
  obs::Counter* retries;
  obs::Histogram* optimize_nanos;

  static const WhatIfMetrics& Get() {
    static const WhatIfMetrics m = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return WhatIfMetrics{registry.GetCounter("whatif.optimizer_calls"),
                           registry.GetCounter("whatif.cache_hits"),
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

/// Shard of a 64-bit hash: the top bits after a Fibonacci multiply, so
/// aligned query addresses (low bits zero) still spread across shards.
size_t ShardIndex(uint64_t hash, size_t shards) {
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> 32) % shards;
}

}  // namespace

size_t WhatIfOptimizer::KeyHash::operator()(const Key& k) const noexcept {
  uint64_t h = std::hash<const void*>()(k.query);
  for (const uint32_t id : k.index_ids) h = HashCombine(h, id);
  return static_cast<size_t>(h);
}

WhatIfOptimizer::Shard& WhatIfOptimizer::ShardFor(const Key& key) {
  return shards_[ShardIndex(KeyHash()(key), kShards)];
}

WhatIfOptimizer::InternShard& WhatIfOptimizer::InternShardFor(
    const Index& index) {
  return intern_shards_[ShardIndex(std::hash<Index>()(index), kShards)];
}

uint32_t WhatIfOptimizer::Intern(const Index& index) {
  InternShard& shard = InternShardFor(index);
  MutexLock lock(shard.mutex);
  const auto [it, inserted] = shard.ids.try_emplace(index, 0);
  if (inserted) {
    it->second = next_index_id_.fetch_add(1);
  }
  return it->second;
}

WhatIfOptimizer::Key WhatIfOptimizer::MakeKey(const sql::BoundQuery& query,
                                              const Configuration& config) {
  Key key{&query, {}};
  for (const Index& index : config.indexes()) {
    if (query.ReferencesTable(index.table())) {
      key.index_ids.push_back(Intern(index));
    }
  }
  return key;
}

double WhatIfOptimizer::Cost(const sql::BoundQuery& query,
                             const Configuration& config) {
  StatusOr<double> cost = TryCost(query, config);
  ISUM_CHECK_OK(cost);
  return *cost;
}

StatusOr<double> WhatIfOptimizer::TryCost(const sql::BoundQuery& query,
                                          const Configuration& config,
                                          const TimeBudget& budget) {
  const WhatIfMetrics& metrics = WhatIfMetrics::Get();
  Key key = MakeKey(query, config);
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(shard.mutex);
    auto it = shard.cache.find(key);
    if (it != shard.cache.end()) {
      cache_hits_.Add(1);
      metrics.hits->Add(1);
      return it->second;
    }
  }
  ISUM_RETURN_IF_ERROR(budget.CheckCancelled());

  // A real optimizer invocation: bounded retry around transient failures
  // from the "whatif.cost" fault site.
  const int max_attempts = std::max(1, retry_policy_.max_attempts);
  for (int attempt = 1;; ++attempt) {
    const Status fault = ISUM_FAULT_POINT("whatif.cost");
    if (fault.ok()) break;
    if (fault.code() != StatusCode::kUnavailable || attempt >= max_attempts) {
      // Surfaced to the caller: persistent failure or retries exhausted.
      obs::Journal::Global().Fault("whatif.cost",
                                   StatusCodeToString(fault.code()));
      return fault;
    }
    retry_attempts_.Add(1);
    metrics.retries->Add(1);
    uint64_t backoff = BackoffNanos(retry_policy_, attempt);
    // Never sleep past the deadline; re-check the budget after waking.
    backoff = std::min(backoff, budget.deadline().remaining_nanos());
    obs::Journal::Global().Retry("whatif.cost",
                                 static_cast<uint64_t>(attempt), backoff);
    if (backoff > 0) SleepForNanos(backoff);
    ISUM_RETURN_IF_ERROR(budget.CheckCancelled());
  }

  uint64_t nanos = 0;
  double cost = 0.0;
  {
    ISUM_TRACE_SPAN("whatif/optimize");
    const uint64_t start = MonotonicNanos();
    cost = optimizer_.Cost(query, config);
    const uint64_t end = MonotonicNanos();
    nanos = end >= start ? end - start : 0;
  }
  optimizer_calls_.Add(1);
  optimizer_nanos_.Add(nanos);
  metrics.calls->Add(1);
  metrics.optimize_nanos->Observe(nanos);
  {
    MutexLock lock(shard.mutex);
    shard.cache.emplace(std::move(key), cost);
  }
  return cost;
}

std::vector<WhatIfOptimizer::CacheEntry> WhatIfOptimizer::ExportCache(
    const std::unordered_map<const void*, uint32_t>& query_ids,
    const std::vector<Index>& pool) {
  // Interned id -> pool position, built once (one lookup per pool index).
  constexpr uint32_t kNotInPool = UINT32_MAX;
  std::vector<uint32_t> to_pool(next_index_id_.load(), kNotInPool);
  for (size_t p = 0; p < pool.size(); ++p) {
    InternShard& shard = InternShardFor(pool[p]);
    MutexLock lock(shard.mutex);
    const auto it = shard.ids.find(pool[p]);
    if (it != shard.ids.end() && it->second < to_pool.size()) {
      to_pool[it->second] = static_cast<uint32_t>(p);
    }
  }
  std::vector<CacheEntry> out;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const auto& [key, cost] : shard.cache) {
      const auto it = query_ids.find(key.query);
      if (it == query_ids.end()) continue;
      CacheEntry entry{it->second, {}, cost};
      entry.pool_ids.reserve(key.index_ids.size());
      for (const uint32_t id : key.index_ids) {
        const uint32_t p = id < to_pool.size() ? to_pool[id] : kNotInPool;
        if (p == kNotInPool) break;
        entry.pool_ids.push_back(p);
      }
      if (entry.pool_ids.size() != key.index_ids.size()) continue;
      out.push_back(std::move(entry));
    }
  }
  return out;
}

void WhatIfOptimizer::ImportCache(
    const std::vector<CacheEntry>& entries,
    const std::vector<const sql::BoundQuery*>& queries,
    const std::vector<Index>& pool) {
  std::vector<uint32_t> from_pool;
  from_pool.reserve(pool.size());
  for (const Index& index : pool) from_pool.push_back(Intern(index));
  for (const CacheEntry& entry : entries) {
    if (entry.query_id >= queries.size()) continue;
    Key key{queries[entry.query_id], {}};
    key.index_ids.reserve(entry.pool_ids.size());
    for (const uint32_t p : entry.pool_ids) {
      if (p >= from_pool.size()) break;
      key.index_ids.push_back(from_pool[p]);
    }
    if (key.index_ids.size() != entry.pool_ids.size()) continue;
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mutex);
    shard.cache.emplace(std::move(key), entry.cost);
  }
}

}  // namespace isum::engine
