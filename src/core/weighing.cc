#include "core/weighing.h"

#include <algorithm>
#include <unordered_map>

namespace isum::core {

namespace {

std::vector<double> UniformWeights(size_t k) {
  return std::vector<double>(k, k > 0 ? 1.0 / static_cast<double>(k) : 0.0);
}

std::vector<double> Normalized(std::vector<double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return UniformWeights(weights.size());
  for (double& w : weights) w /= total;
  return weights;
}

/// Algorithms 4 and 5 over the state's original (pre-update) signals,
/// copied because the recalibration mutates them. Features are copied per
/// class: rows [0, num_classes()) are shared by each class's Wu members,
/// which start equal and receive identical updates, and each selected query
/// reads its own copy at `row_of[s]`. Utilities are per query.
std::vector<double> Recalibrate(const workload::Workload& workload,
                                const CompressionState& state,
                                const SelectionResult& selection,
                                WeighingStrategy strategy) {
  const size_t k = selection.selected.size();
  std::vector<SparseVector> rows;
  rows.reserve(state.num_classes() + k);
  for (size_t c = 0; c < state.num_classes(); ++c) {
    rows.push_back(state.original_class_features(c));
  }
  std::vector<size_t> row_of(workload.size());
  std::vector<double> utilities(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    row_of[i] = state.feature_class(i);
    utilities[i] = state.original_utility(i);
  }
  for (size_t s : selection.selected) {
    row_of[s] = rows.size();
    rows.push_back(state.original_features(s));
  }

  // Wu: the pool the summary is built from. Starts as W minus the selected
  // queries; the template step below removes whole matching templates.
  std::vector<bool> in_wu(workload.size(), true);
  for (size_t s : selection.selected) in_wu[s] = false;

  if (strategy == WeighingStrategy::kRecalibratedWithTemplates) {
    // --- Algorithm 4: template-based utility computation. ---
    struct TemplateAgg {
      double freq_in_wk = 0.0;
      double total_utility = 0.0;
    };
    std::unordered_map<uint64_t, TemplateAgg> agg;
    for (size_t s : selection.selected) {
      agg[workload.query(s).template_hash].freq_in_wk += 1.0;
    }
    for (size_t i = 0; i < workload.size(); ++i) {
      auto it = agg.find(workload.query(i).template_hash);
      if (it == agg.end()) continue;
      it->second.total_utility += utilities[i];
      in_wu[i] = false;  // W' drops all queries matching a selected template
    }
    for (size_t s : selection.selected) {
      const TemplateAgg& a = agg[workload.query(s).template_hash];
      utilities[s] = a.total_utility / std::max(1.0, a.freq_in_wk);
    }
  }

  // --- Algorithm 5: iterative re-calibration against the Wu summary. ---
  // The summary lives in a dense accumulator (rebuilt per round, like the
  // sparse AddScaled chain it replaces and bit-identical to it), and the
  // update loop probes the chosen query through a dense scatter; both turn
  // O(k·n) sorted merges into linear gathers.
  std::vector<size_t> remaining = selection.selected;
  std::unordered_map<size_t, double> raw_weight;
  const size_t num_features = state.feature_space().size();
  std::vector<double> summary(num_features, 0.0);
  DenseScratch chosen_scratch;
  chosen_scratch.Reserve(num_features);
  std::vector<double> class_sim;
  while (!remaining.empty()) {
    // Summary over current Wu signals.
    std::fill(summary.begin(), summary.end(), 0.0);
    for (size_t i = 0; i < workload.size(); ++i) {
      if (!in_wu[i]) continue;
      const double u = utilities[i];
      for (const SparseVector::Entry& e : rows[row_of[i]].entries()) {
        summary[e.feature] += e.weight * u;
      }
    }
    double summary_total = 0.0;
    for (double v : summary) summary_total += v;

    double max_benefit = -1.0;
    size_t arg = 0;
    for (size_t r = 0; r < remaining.size(); ++r) {
      const size_t qi = remaining[r];
      double min_sum = 0.0, query_sum = 0.0;
      for (const SparseVector::Entry& e : rows[row_of[qi]].entries()) {
        query_sum += e.weight;
        min_sum += std::min(e.weight, summary[e.feature]);
      }
      const double max_sum = query_sum + summary_total - min_sum;
      const double benefit =
          utilities[qi] + (max_sum > 0.0 ? min_sum / max_sum : 0.0);
      if (benefit > max_benefit) {
        max_benefit = benefit;
        arg = r;
      }
    }
    const size_t chosen = remaining[arg];
    raw_weight[chosen] = std::max(0.0, max_benefit);
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(arg));

    // UpdateWorkload(Wu, chosen): feature-zero + utility discount, with the
    // similarity and the zeroing once per class (-1 marks "not yet").
    const SparseVector& chosen_row = rows[row_of[chosen]];
    chosen_scratch.Scatter(chosen_row);
    class_sim.assign(state.num_classes(), -1.0);
    for (size_t i = 0; i < workload.size(); ++i) {
      if (!in_wu[i]) continue;
      const size_t c = row_of[i];
      if (class_sim[c] < 0.0) {
        class_sim[c] = WeightedJaccardVsDense(chosen_scratch, rows[c]);
        rows[c].ZeroWhere(chosen_row);
      }
      utilities[i] -= utilities[i] * class_sim[c];
    }
  }

  std::vector<double> weights(k, 0.0);
  for (size_t r = 0; r < k; ++r) {
    weights[r] = raw_weight[selection.selected[r]];
  }
  return Normalized(std::move(weights));
}

}  // namespace

std::vector<double> WeighSelectedQueries(const workload::Workload& workload,
                                         const CompressionState& state,
                                         const SelectionResult& selection,
                                         WeighingStrategy strategy) {
  const size_t k = selection.selected.size();
  if (k == 0) return {};
  if (strategy == WeighingStrategy::kNone) return UniformWeights(k);
  if (strategy == WeighingStrategy::kSelectionBenefit) {
    return Normalized(selection.selection_benefits);
  }

  // The original signals already live in the state: no re-featurization.
  return Recalibrate(workload, state, selection, strategy);
}

}  // namespace isum::core
