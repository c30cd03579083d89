#ifndef ISUM_ADVISOR_ENUMERATOR_H_
#define ISUM_ADVISOR_ENUMERATOR_H_

#include <cstdint>
#include <vector>

#include "advisor/advisor.h"
#include "common/checkpoint.h"
#include "common/deadline.h"

namespace isum::advisor {

/// Result of greedy configuration enumeration.
struct EnumerationResult {
  engine::Configuration configuration;
  uint64_t configurations_explored = 0;
  double initial_cost = 0.0;
  double final_cost = 0.0;
  /// kComplete, or why enumeration stopped early. On early stop the
  /// configuration holds only fully-evaluated rounds — a partially costed
  /// round is never applied (docs/ROBUSTNESS.md).
  StopReason stop_reason = StopReason::kComplete;
};

/// One `.enum` checkpoint epoch (layout in enumerator.cc).
struct EnumSnapshot {
  uint64_t fingerprint = 0;
  uint64_t done = 0;
  uint64_t stop_reason = 0;  ///< a StopReason; DecodeEnumSnapshot checks range
  uint64_t configurations_explored = 0;
  uint64_t initial_cost_bits = 0;
  uint64_t total_cost_bits = 0;
  std::vector<uint64_t> winners;  ///< pool indices, in round order
  std::vector<double> costs;      ///< per-query current cost
};

/// Decodes one enumeration epoch. kParseError when the payload is
/// structurally invalid (stop reason out of range). Whether it fits a run
/// (fingerprint, initial cost bits, pool and query counts) is the resuming
/// run's check. `tracecat ckpt` uses this to reject exactly the epochs
/// resume rejects on their own bytes.
StatusOr<EnumSnapshot> DecodeEnumSnapshot(const CheckpointReader& reader);

/// Greedily grows a configuration from `pool`: each round adds the candidate
/// with the maximum weighted-workload cost improvement that still fits the
/// storage budget, stopping at `max_indexes` or when no candidate improves.
/// Costs a candidate only for the queries that can use it
/// (Optimizer::CanUse), and after the first round re-costs only those that
/// can also use the last winner, carrying the candidate's other costs over
/// from the previous round (exact: an index a query cannot use never
/// changes its plan). That is what makes enumeration tractable.
/// `budget` makes enumeration anytime: it is observed at round boundaries
/// and inside every what-if call, and on expiry the configuration built so
/// far is returned with stop_reason set. Candidates whose costing fails
/// persistently under fault injection are treated as non-improving; a round
/// where *every* candidate fails stops enumeration with
/// StopReason::kFault. `num_threads` > 1 evaluates candidates concurrently
/// (same result for any thread count: the winner is reduced
/// deterministically; on cancellation the in-flight batch is drained before
/// returning).
///
/// `ckpt` enables crash-safe checkpoint/resume (docs/ROBUSTNESS.md): after
/// initial costing, the newest valid epoch under `<path>.enum` whose
/// fingerprint (queries, weights, pool, constraints) and bit-exact initial
/// cost match is restored — the winner sequence is replayed and per-query
/// current costs are reinstated — and enumeration continues from the
/// checkpointed round, whose candidates are re-costed in full; epochs are
/// written every `ckpt.every_rounds` rounds and at termination. A resumed
/// run adds the same indexes at the same costs as an uninterrupted one.
EnumerationResult GreedyEnumerate(
    engine::WhatIfOptimizer& what_if,
    const std::vector<WeightedQuery>& queries,
    const std::vector<engine::Index>& pool, int max_indexes,
    uint64_t storage_budget_bytes, const catalog::Catalog& catalog,
    const TimeBudget& budget = {}, int num_threads = 1,
    const CheckpointConfig& ckpt = {});

}  // namespace isum::advisor

#endif  // ISUM_ADVISOR_ENUMERATOR_H_
