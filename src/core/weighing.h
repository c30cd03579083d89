#ifndef ISUM_CORE_WEIGHING_H_
#define ISUM_CORE_WEIGHING_H_

#include <vector>

#include "core/compression_state.h"
#include "core/greedy.h"

namespace isum::core {

/// Weighing strategies compared in Figure 14 of the paper.
enum class WeighingStrategy {
  /// Every selected query gets equal weight.
  kNone,
  /// Reuse the conditional benefits recorded during greedy selection
  /// (§7 notes these overweight early selections).
  kSelectionBenefit,
  /// Re-calibrate benefits with a summary built from unselected queries
  /// only (Algorithm 5 without the template step).
  kRecalibrated,
  /// Template-based utility readjustment (Algorithm 4) + re-calibration
  /// (Algorithm 5). The paper's default.
  kRecalibratedWithTemplates,
};

/// Computes the weight of each selected query (§7, Algorithms 4 and 5).
/// Returned weights are parallel to `selection.selected` and normalized to
/// sum to 1. The original (pre-update) features and utilities come from
/// `state`, so the workload is not re-featurized.
std::vector<double> WeighSelectedQueries(const workload::Workload& workload,
                                         const CompressionState& state,
                                         const SelectionResult& selection,
                                         WeighingStrategy strategy);

}  // namespace isum::core

#endif  // ISUM_CORE_WEIGHING_H_
