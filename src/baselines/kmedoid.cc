#include "baselines/kmedoid.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "core/weighting.h"

namespace isum::baselines {

workload::CompressedWorkload KMedoidCompressor::Compress(
    const workload::Workload& workload, size_t k) {
  workload::CompressedWorkload out;
  const size_t n = workload.size();
  if (n == 0) return out;
  k = std::min(k, n);

  // ISUM rule-based features as the similarity substrate, featurized once
  // per feature class: every distance scan below scatters one medoid's row
  // and gathers over the class rows instead of per-pair sorted merges, and
  // a query reads its class's row.
  core::FeatureSpace space;
  const core::WorkloadFeatures features =
      core::FeaturizeWorkload(workload, {}, &space);
  const std::vector<core::SparseVector>& rows = features.rows;
  const std::vector<uint32_t>& class_of = features.class_of;
  core::DenseScratch scratch;
  std::vector<double> class_sim(rows.size(), 0.0);

  // Scans medoids in ascending slot order with a strict comparison, so the
  // lowest medoid slot wins distance ties exactly like the per-pair loop
  // this replaces did.
  const auto assign_all = [&](const std::vector<size_t>& medoids,
                              std::vector<size_t>* assignment) {
    std::vector<double> best(n, 2.0);
    for (size_t m = 0; m < medoids.size(); ++m) {
      scratch.Scatter(rows[class_of[medoids[m]]]);
      for (size_t c = 0; c < rows.size(); ++c) {
        class_sim[c] = core::WeightedJaccardVsDense(scratch, rows[c]);
      }
      for (size_t i = 0; i < n; ++i) {
        const double d = 1.0 - class_sim[class_of[i]];
        if (d < best[i]) {
          best[i] = d;
          (*assignment)[i] = m;
        }
      }
    }
  };

  Rng rng(seed_);
  std::vector<size_t> medoids = rng.SampleWithoutReplacement(n, k);
  std::vector<size_t> assignment(n, 0);
  std::vector<size_t> members;

  // Anytime under the ambient budget: polled at iteration boundaries. The
  // medoids standing when the budget expires are a valid (just less
  // converged) clustering; the final assignment below still runs so weights
  // are consistent with the returned medoids.
  const TimeBudget budget = EffectiveBudget({});
  for (int iter = 0; iter < max_iterations_; ++iter) {
    const Status iter_check = budget.CheckCancelled();
    if (!iter_check.ok()) {
      out.stop_reason = TimeBudget::ReasonFor(iter_check);
      break;
    }
    // Assign.
    assign_all(medoids, &assignment);
    // Update: medoid = member minimizing intra-cluster distance sum.
    bool changed = false;
    for (size_t m = 0; m < medoids.size(); ++m) {
      members.clear();
      for (size_t i = 0; i < n; ++i) {
        if (assignment[i] == m) members.push_back(i);
      }
      if (members.empty()) continue;
      double best_sum = -1.0;
      size_t best_medoid = medoids[m];
      for (size_t cand : members) {
        scratch.Scatter(rows[class_of[cand]]);
        double sum = 0.0;
        for (size_t other : members) {
          sum += 1.0 -
                 core::WeightedJaccardVsDense(scratch, rows[class_of[other]]);
        }
        if (best_sum < 0.0 || sum < best_sum) {
          best_sum = sum;
          best_medoid = cand;
        }
      }
      if (best_medoid != medoids[m]) {
        medoids[m] = best_medoid;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Final assignment for weights.
  std::vector<size_t> final_assignment(n, 0);
  assign_all(medoids, &final_assignment);
  std::vector<double> cluster_size(medoids.size(), 0.0);
  for (size_t i = 0; i < n; ++i) cluster_size[final_assignment[i]] += 1.0;
  for (size_t m = 0; m < medoids.size(); ++m) {
    out.entries.push_back({medoids[m], std::max(1.0, cluster_size[m])});
  }
  out.NormalizeWeights();
  NoteStopReason(out.stop_reason);
  return out;
}

}  // namespace isum::baselines
