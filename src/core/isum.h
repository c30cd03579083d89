#ifndef ISUM_CORE_ISUM_H_
#define ISUM_CORE_ISUM_H_

#include "common/checkpoint.h"
#include "core/greedy.h"
#include "core/weighing.h"

namespace isum::core {

/// Full configuration of the ISUM compressor. The defaults are the paper's
/// default ISUM; `StatsVariant()` returns ISUM-S. Compression runs on the
/// calling thread (GreedySelect is serial).
struct IsumOptions {
  FeaturizationOptions featurization;  // rule-based, table weights on
  UtilityMode utility_mode = UtilityMode::kCostOnly;
  SelectionAlgorithm algorithm = SelectionAlgorithm::kSummaryFeatures;
  UpdateStrategy update = UpdateStrategy::kUtilityAndFeatureZero;
  WeighingStrategy weighing = WeighingStrategy::kRecalibratedWithTemplates;
  /// Deadline/cancellation observed once per greedy round; on expiry
  /// Compress returns the queries selected so far with
  /// CompressedWorkload::stop_reason set. Unlimited by default; an
  /// unlimited budget falls back to the ambient one (common/deadline.h).
  TimeBudget budget;
  /// Crash-safe checkpoint/resume: when enabled (or when an ambient config
  /// is installed via --checkpoint=), selection writes an epoch every
  /// `checkpoint.every_rounds` rounds and resumes from the newest valid
  /// epoch whose fingerprint matches this workload/options combination. A
  /// resumed run is bit-identical to an uninterrupted one
  /// (core/checkpointing.h, docs/ROBUSTNESS.md).
  CheckpointConfig checkpoint;

  /// ISUM-S: stats-based column weights + selectivity-aware utility.
  static IsumOptions StatsVariant() {
    IsumOptions o;
    o.featurization.scheme = WeightingScheme::kStatsBased;
    o.utility_mode = UtilityMode::kCostTimesSelectivity;
    return o;
  }

  /// ISUM-NoTable (Figure 10): stats-based weights without table sizes.
  static IsumOptions NoTableVariant() {
    IsumOptions o = StatsVariant();
    o.featurization.use_table_weight = false;
    return o;
  }
};

/// The ISUM workload compressor (the paper's contribution): selects k
/// queries maximizing estimated benefit and weighs them for the tuner.
class Isum {
 public:
  explicit Isum(const workload::Workload* workload, IsumOptions options = {})
      : workload_(workload), options_(options) {}

  /// Compresses to (at most) k weighted queries. May return fewer than k
  /// when the remaining queries have no indexable columns at all (nothing
  /// an index tuner could use them for — Algorithm 1 skips zero-feature
  /// queries, and resetting cannot revive a query that never had features),
  /// or when the time budget expires mid-selection — then the result is the
  /// best-so-far prefix with stop_reason set (always a valid compression).
  workload::CompressedWorkload Compress(size_t k) const;

  /// Builds a fresh compression state for this workload/options (exposed for
  /// correlation benches, Figures 5–8, and for running one stage alone).
  CompressionState MakeState() const {
    return CompressionState(*workload_, options_.featurization,
                            options_.utility_mode);
  }

  const IsumOptions& options() const { return options_; }

 private:
  const workload::Workload* workload_;
  IsumOptions options_;
};

}  // namespace isum::core

#endif  // ISUM_CORE_ISUM_H_
