#include "core/greedy.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "core/checkpointing.h"
#include "obs/journal.h"

namespace isum::core {

namespace {

/// One round's argmax: the first eligible query attaining the maximum
/// conditional benefit. The runner-up benefit rides along for the journal's
/// winning-margin field; it never influences the pick.
struct RoundBest {
  size_t query = 0;
  double benefit = -1.0;
  double runner_up = -1.0;

  void Offer(size_t i, double b) {
    if (b > benefit) {
      runner_up = benefit;
      benefit = b;
      query = i;
    } else if (b > runner_up) {
      runner_up = b;
    }
  }
};

/// Algorithm 1: each candidate i scatters its features once and gathers
/// against every other unselected j in ascending order.
RoundBest AllPairsArgmax(const CompressionState& state,
                         const std::vector<size_t>& eligible,
                         DenseScratch& scratch) {
  scratch.Reserve(state.feature_space().size());
  RoundBest best{eligible.front()};
  for (const size_t i : eligible) {
    scratch.Scatter(state.features(i));
    double influence = 0.0;
    for (size_t j = 0; j < state.size(); ++j) {
      if (j == i || state.selected(j)) continue;
      influence +=
          WeightedJaccardVsDense(scratch, state.features(j)) * state.utility(j);
    }
    best.Offer(i, state.utility(i) + influence);
  }
  return best;
}

/// SummaryInfluence against a dense summary in O(nnz(query)) instead of
/// O(|summary|): expands V' = scale · clamp(V - u·q) through the weighted
/// Jaccard. min_sum accumulates in feature order with the exact per-feature
/// expressions of the sparse path, so it is bit-identical to
/// SummaryInfluence; max_sum uses the sum identity (see
/// WeightedJaccardVsDense) and may differ by ulps.
double DenseSummaryInfluence(const SparseVector& query_features,
                             double query_utility, double total_utility,
                             const std::vector<double>& summary,
                             double summary_total) {
  const double remaining = total_utility - query_utility;
  const double scale =
      remaining > 1e-15 ? total_utility / remaining : 1.0;
  double min_sum = 0.0;
  double query_sum = 0.0;
  double covered = 0.0;    // summary mass on the query's support
  double covered_v = 0.0;  // that mass after subtract-clamp
  for (const SparseVector::Entry& e : query_features.entries()) {
    const double v = summary[e.feature];
    const double v_prime =
        std::max(0.0, v + e.weight * (-query_utility)) * scale;
    min_sum += std::min(e.weight, v_prime);
    query_sum += e.weight;
    covered += v;
    covered_v += v_prime;
  }
  const double v_prime_sum = (summary_total - covered) * scale + covered_v;
  const double max_sum = query_sum + v_prime_sum - min_sum;
  return max_sum > 0.0 ? min_sum / max_sum : 0.0;
}

/// Algorithm 3: regenerates the summary over the unselected queries (§6.2:
/// updating V in place for conditional influence is too lossy), then scores
/// every eligible query against it. Accumulating per feature in ascending
/// query order reproduces the AddScaled chain of ComputeSummaryFeatures
/// bit-for-bit.
RoundBest SummaryArgmax(const CompressionState& state,
                        const std::vector<size_t>& eligible,
                        std::vector<double>& summary) {
  summary.assign(state.feature_space().size(), 0.0);
  double total_utility = 0.0;
  for (size_t i = 0; i < state.size(); ++i) {
    if (state.selected(i)) continue;
    total_utility += state.utility(i);
    const double u = state.utility(i);
    for (const SparseVector::Entry& e : state.features(i).entries()) {
      summary[e.feature] += e.weight * u;
    }
  }
  double summary_total = 0.0;
  for (double v : summary) summary_total += v;

  RoundBest best{eligible.front()};
  for (const size_t i : eligible) {
    best.Offer(i, state.utility(i) +
                      DenseSummaryInfluence(state.features(i),
                                            state.utility(i), total_utility,
                                            summary, summary_total));
  }
  return best;
}

}  // namespace

SparseVector ComputeSummaryFeatures(const CompressionState& state) {
  SparseVector v;
  for (size_t i = 0; i < state.size(); ++i) {
    if (state.selected(i)) continue;
    v.AddScaled(state.features(i), state.utility(i));
  }
  return v;
}

double SummaryInfluence(const SparseVector& query_features, double query_utility,
                        double total_utility, const SparseVector& summary) {
  // V' = (V - q_i × U(q_i)) × total / (total - U(q_i)): remove the query's
  // own contribution and renormalize the remaining mass (Algorithm 3).
  SparseVector v_prime = summary;
  v_prime.SubtractScaledClamped(query_features, query_utility);
  const double remaining = total_utility - query_utility;
  if (remaining > 1e-15) {
    v_prime.Scale(total_utility / remaining);
  }
  return WeightedJaccard(query_features, v_prime);
}

SelectionResult GreedySelect(CompressionState& state, size_t k,
                             SelectionAlgorithm algorithm,
                             UpdateStrategy strategy,
                             const TimeBudget& budget,
                             SelectionCheckpointer* ckpt,
                             SelectionResult seed) {
  SelectionResult result = std::move(seed);
  result.stop_reason = StopReason::kComplete;
  // Per-algorithm buffers, reused across rounds.
  DenseScratch scratch;
  std::vector<double> summary;
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
    // Per-round (k total), not per-pair: the vector is returned by value
    // and the round's O(n) scan dwarfs one allocation.
    // NOLINTNEXTLINE(isum-no-perpair-alloc)
    const std::vector<size_t> eligible = state.EligibleAfterReset();
    if (eligible.empty()) break;  // every query selected or featureless

    const RoundBest best =
        algorithm == SelectionAlgorithm::kAllPairs
            ? AllPairsArgmax(state, eligible, scratch)
            : SummaryArgmax(state, eligible, summary);
    if (obs::journal::Enabled()) {
      obs::journal::SelectRound(
          result.selected.size(), best.query, best.benefit,
          best.runner_up < 0.0 ? -1.0 : best.benefit - best.runner_up,
          eligible.size());
    }
    result.selected.push_back(best.query);
    result.selection_benefits.push_back(best.benefit);
    state.SelectAndUpdate(best.query, strategy);
    if (ckpt != nullptr) ckpt->OnRound(result);
  }
  return result;
}

}  // namespace isum::core
