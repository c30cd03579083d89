#include "core/allpairs.h"

#include <algorithm>

#include "common/fault.h"
#include "core/checkpointing.h"
#include "obs/journal.h"

namespace isum::core {

namespace {

/// Shard width for the per-round argmax. A fixed width (rather than
/// #candidates / #threads) keeps the shard layout — and therefore the
/// reduction — independent of thread count; see AllPairsGreedySelect's
/// contract in the header.
constexpr size_t kArgmaxShardSize = 256;

/// Winner of one shard's scan: the first candidate (in eligible order)
/// attaining the shard's maximum conditional benefit, plus the shard's
/// runner-up benefit so the global reduce can report the winning margin
/// (journal `select` events) without a second scan.
struct ShardBest {
  double benefit = -1.0;
  double second = -1.0;
  size_t query = 0;
  bool filled = false;
};

}  // namespace

SelectionResult AllPairsGreedySelect(CompressionState& state, size_t k,
                                     UpdateStrategy strategy,
                                     const TimeBudget& budget,
                                     ThreadPool* pool,
                                     SelectionCheckpointer* ckpt,
                                     SelectionResult seed) {
  SelectionResult result = std::move(seed);
  result.stop_reason = StopReason::kComplete;
  // Per-shard probe buffers, reused across rounds (ParallelFor hands each
  // shard index to exactly one worker, so slots are never shared).
  std::vector<DenseScratch> scratches;
  std::vector<ShardBest> shard_best;
  while (result.selected.size() < k) {
    // Cooperative stop: budget expiry or an injected fault ends selection
    // with the (valid) prefix chosen so far.
    const Status round = budget.CheckCancelled();
    if (!round.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(round);
      break;
    }
    const Status fault = ISUM_FAULT_POINT("compress.select");
    if (!fault.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(fault);
      break;
    }
    // Algorithm 2, line 12: when every remaining query is fully covered,
    // reset features to their original weights and keep going.
    std::vector<size_t> eligible = state.EligibleQueries();
    if (eligible.empty()) {
      state.ResetUnselectedFeatures();
      eligible = state.EligibleQueries();
      if (eligible.empty()) break;  // every query already selected
    }

    // Algorithm 1: argmax over conditional benefit, sharded over fixed-width
    // candidate blocks. Each candidate i scatters its features once and
    // gathers against every unselected j in ascending order — the same sum,
    // in the same order, no matter which worker runs the shard.
    const size_t num_shards =
        (eligible.size() + kArgmaxShardSize - 1) / kArgmaxShardSize;
    if (scratches.size() < num_shards) scratches.resize(num_shards);
    shard_best.assign(num_shards, ShardBest{});
    const auto run_shard = [&](size_t shard) {
      DenseScratch& scratch = scratches[shard];
      scratch.Reserve(state.feature_space().size());
      const size_t lo = shard * kArgmaxShardSize;
      const size_t hi = std::min(lo + kArgmaxShardSize, eligible.size());
      ShardBest best;
      for (size_t e = lo; e < hi; ++e) {
        const size_t i = eligible[e];
        scratch.Scatter(state.features(i));
        double influence = 0.0;
        for (size_t j = 0; j < state.size(); ++j) {
          if (j == i || state.selected(j)) continue;
          influence +=
              WeightedJaccardVsDense(scratch, state.features(j)) *
              state.utility(j);
        }
        const double benefit = state.utility(i) + influence;
        if (!best.filled || benefit > best.benefit) {
          best.second = best.benefit;
          best.benefit = benefit;
          best.query = i;
          best.filled = true;
        } else if (benefit > best.second) {
          best.second = benefit;
        }
      }
      shard_best[shard] = best;
    };
    if (pool != nullptr && pool->num_threads() > 1 && num_shards > 1) {
      pool->ParallelFor(num_shards, run_shard, budget.token());
    } else {
      for (size_t shard = 0; shard < num_shards; ++shard) run_shard(shard);
    }

    // A cancelled ParallelFor may have skipped shards. Completing the round
    // from a partial argmax could pick a different query than a full scan,
    // so either finish the stragglers serially (spurious skip) or abandon
    // the round and return the prefix (real cancellation).
    bool all_filled = true;
    for (const ShardBest& b : shard_best) all_filled = all_filled && b.filled;
    if (!all_filled) {
      const Status status = budget.CheckCancelled();
      if (!status.ok()) {
        result.stop_reason = TimeBudget::ReasonFor(status);
        break;
      }
      for (size_t shard = 0; shard < num_shards; ++shard) {
        if (!shard_best[shard].filled) run_shard(shard);
      }
    }

    // Reduce in shard order with a strict comparison: identical to the
    // serial first-occurrence argmax for any shard/thread layout. The
    // runner-up benefit rides along for decision provenance; it never
    // influences the pick.
    double max_benefit = -1.0;
    double runner_up = -1.0;
    size_t best = eligible.front();
    size_t best_shard = 0;
    for (size_t shard = 0; shard < shard_best.size(); ++shard) {
      const ShardBest& b = shard_best[shard];
      if (b.benefit > max_benefit) {
        runner_up = std::max(max_benefit, b.second);
        max_benefit = b.benefit;
        best = b.query;
        best_shard = shard;
      } else if (b.benefit > runner_up) {
        runner_up = b.benefit;
      }
    }
    if (obs::journal::Enabled()) {
      obs::journal::SelectRound(
          result.selected.size(), best, max_benefit,
          runner_up < 0.0 ? -1.0 : max_benefit - runner_up, best_shard,
          eligible.size());
    }
    result.selected.push_back(best);
    result.selection_benefits.push_back(max_benefit);
    state.SelectAndUpdate(best, strategy);
    if (ckpt != nullptr) ckpt->OnRound(result);
  }
  return result;
}

}  // namespace isum::core
