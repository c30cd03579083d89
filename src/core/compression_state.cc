#include "core/compression_state.h"

#include <utility>

#include "obs/journal.h"

namespace isum::core {

CompressionState::CompressionState(const workload::Workload& workload,
                                   const FeaturizationOptions& feat_options,
                                   UtilityMode utility_mode) {
  WorkloadFeatures features =
      FeaturizeWorkload(workload, feat_options, &space_);
  original_rows_ = std::move(features.rows);
  rows_.reserve(num_classes() + workload.size());
  rows_.assign(original_rows_.begin(), original_rows_.end());
  class_of_ = std::move(features.class_of);
  row_of_ = class_of_;
  utilities_ = ComputeUtilities(workload, utility_mode);
  original_utilities_ = utilities_;
  selected_.assign(workload.size(), false);
}

void CompressionState::SelectAndUpdate(size_t s, UpdateStrategy strategy) {
  // Detach s (once): its row is the q_s snapshot every update below
  // observes, and it stays frozen while its class row keeps changing.
  if (!selected_[s]) {
    selected_[s] = true;
    rows_.push_back(rows_[row_of_[s]]);
    row_of_[s] = static_cast<uint32_t>(rows_.size() - 1);
  }
  if (strategy == UpdateStrategy::kNone) return;
  const SparseVector& qs = rows_[row_of_[s]];
  // The dense scatter makes every similarity below an O(nnz(q_j)) gather
  // instead of a sorted merge.
  update_scratch_.Reserve(space_.size());
  update_scratch_.Scatter(qs);
  // Similarity and feature update once per class, at its first unselected
  // member; utilities are discounted per query. -1 marks "not yet".
  class_sim_.assign(num_classes(), -1.0);
  for (size_t j = 0; j < size(); ++j) {
    if (selected_[j]) continue;
    const uint32_t c = class_of_[j];
    if (class_sim_[c] < 0.0) {
      SparseVector& row = rows_[c];
      class_sim_[c] = WeightedJaccardVsDense(update_scratch_, row);
      switch (strategy) {
        case UpdateStrategy::kUtilityOnly:
          break;
        case UpdateStrategy::kUtilityAndWeightSubtract:
          row.SubtractFromAllClamped(class_sim_[c]);
          break;
        case UpdateStrategy::kUtilityAndFeatureZero:
          row.ZeroWhere(qs);
          break;
        case UpdateStrategy::kNone:
          break;
      }
    }
    // Utility discount: U(q_j | q_s) = U(q_j) - U(q_j) * S(q_s, q_j).
    utilities_[j] -= utilities_[j] * class_sim_[c];
  }
}

void CompressionState::ResetUnselectedFeatures() {
  if (obs::journal::Enabled()) {
    size_t selected_so_far = 0;
    for (const bool s : selected_) selected_so_far += s ? 1 : 0;
    obs::journal::FeatureReset(selected_so_far);
  }
  // Unselected queries read only class rows; selected ones have their own.
  for (size_t c = 0; c < num_classes(); ++c) rows_[c] = original_rows_[c];
}

void CompressionState::ReplaySelection(const std::vector<size_t>& ids,
                                       UpdateStrategy strategy) {
  for (const size_t id : ids) {
    EligibleAfterReset();
    SelectAndUpdate(id, strategy);
  }
}

std::vector<size_t> CompressionState::EligibleQueries() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < size(); ++i) {
    if (!selected_[i] && !rows_[class_of_[i]].AllZero()) out.push_back(i);
  }
  return out;
}

std::vector<size_t> CompressionState::EligibleAfterReset() {
  std::vector<size_t> eligible = EligibleQueries();
  if (eligible.empty()) {
    ResetUnselectedFeatures();
    eligible = EligibleQueries();
  }
  return eligible;
}

}  // namespace isum::core
