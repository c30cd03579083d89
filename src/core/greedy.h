#ifndef ISUM_CORE_GREEDY_H_
#define ISUM_CORE_GREEDY_H_

#include <vector>

#include "common/deadline.h"
#include "core/compression_state.h"

namespace isum::core {

class SelectionCheckpointer;  // core/checkpointing.h

/// Which greedy algorithm drives selection.
enum class SelectionAlgorithm {
  /// Algorithms 1–2: O(k·n²) all-pairs comparisons.
  kAllPairs,
  /// Algorithm 3: O(k·n) via workload summary features. The default.
  kSummaryFeatures,
};

/// Result of a greedy selection run: chosen query indices in selection order
/// and the conditional benefit each had at selection time.
struct SelectionResult {
  std::vector<size_t> selected;
  std::vector<double> selection_benefits;
  /// kComplete, or why selection stopped early with a best-so-far prefix
  /// (time budget, cancellation, injected fault — docs/ROBUSTNESS.md).
  StopReason stop_reason = StopReason::kComplete;
};

/// Workload summary features (Definition 11): per-column utility-weighted
/// sums over the *unselected* queries, V_c = Σ_i q_ic × U(q_i).
SparseVector ComputeSummaryFeatures(const CompressionState& state);

/// Influence of a query on the workload estimated through summary features
/// (§6.1): F_{q_s}(V) = S(q_s, V). `query_utility` must be the query's own
/// utility so its contribution is removed and the remainder rescaled
/// (Algorithm 3, lines 9–11).
double SummaryInfluence(const SparseVector& query_features, double query_utility,
                        double total_utility, const SparseVector& summary);

/// The greedy selection loop of both algorithms. Each of up to k rounds
/// takes the eligible queries (CompressionState::EligibleAfterReset, which
/// resets features when every unselected query is fully covered), picks the
/// first one with the maximum conditional benefit, and applies `strategy`:
///   - kAllPairs (Algorithms 1–2): benefit = utility + Σ_j S(q_i, q_j)·U(q_j)
///     over every other unselected j in ascending order. O(k·n²).
///   - kSummaryFeatures (Algorithm 3, §6.2): each round rebuilds the summary
///     over the unselected queries and scores utility + S(q_i, V').
///     O(k·n·f) where f is the average feature count.
/// Selection is serial and deterministic.
///
/// `budget` is observed once per round: on expiry the queries selected so
/// far are returned with stop_reason set (every prefix of a greedy run is a
/// valid compression). `seed` is a checkpoint-restored prefix: the loop
/// continues from it, and the caller must already have replayed it into
/// `state` (CompressionState::ReplaySelection). Nothing else is
/// checkpointed: each round rebuilds its scores from the (replayed) state,
/// so a resumed round recomputes them bit-identically. `ckpt`, when
/// non-null, is notified after every completed round for periodic epoch
/// writes.
SelectionResult GreedySelect(CompressionState& state, size_t k,
                             SelectionAlgorithm algorithm,
                             UpdateStrategy strategy,
                             const TimeBudget& budget = {},
                             SelectionCheckpointer* ckpt = nullptr,
                             SelectionResult seed = {});

/// GreedySelect with the summary-features algorithm, unbudgeted; the
/// whole-pipeline benchmark times selection alone through it.
inline SelectionResult SummaryGreedySelect(CompressionState& state, size_t k,
                                           UpdateStrategy strategy) {
  return GreedySelect(state, k, SelectionAlgorithm::kSummaryFeatures,
                      strategy);
}

}  // namespace isum::core

#endif  // ISUM_CORE_GREEDY_H_
