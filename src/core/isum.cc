#include "core/isum.h"

#include <memory>
#include <utility>

#include "core/checkpointing.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace isum::core {

namespace {

const char* AlgorithmName(SelectionAlgorithm algorithm) {
  switch (algorithm) {
    case SelectionAlgorithm::kAllPairs:
      return "all-pairs";
    case SelectionAlgorithm::kSummaryFeatures:
      return "summary-features";
  }
  return "unknown";
}

struct CompressMetrics {
  obs::Counter* runs;
  obs::Counter* input_queries;
  obs::Counter* feature_classes;
  obs::Counter* selected_queries;

  static const CompressMetrics& Get() {
    static const CompressMetrics m = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return CompressMetrics{registry.GetCounter("compress.runs"),
                             registry.GetCounter("compress.input_queries"),
                             registry.GetCounter("compress.feature_classes"),
                             registry.GetCounter("compress.selected_queries")};
    }();
    return m;
  }
};

SelectionResult RunSelection(CompressionState& state, size_t k,
                             const IsumOptions& options,
                             const TimeBudget& budget) {
  ISUM_TRACE_SPAN_VAR(span, "compress/greedy-pick");
  span.Arg("k", static_cast<uint64_t>(k))
      .Arg("algorithm", AlgorithmName(options.algorithm))
      .Arg("threads", options.num_threads);
  obs::journal::CompressBegin(state.size(), k, AlgorithmName(options.algorithm),
                              static_cast<uint64_t>(options.num_threads));

  // Checkpoint/resume (core/checkpointing.h): restore the newest valid
  // epoch whose fingerprint matches this work unit, replay its prefix into
  // the state, and continue the greedy loop from there. When the restored
  // prefix already covers k, the loop condition is false and the run
  // completes without a single argmax scan.
  SelectionResult seed;
  std::unique_ptr<SelectionCheckpointer> ckpt;
  const CheckpointConfig ckpt_config = EffectiveCheckpoint(options.checkpoint);
  if (ckpt_config.enabled()) {
    const uint64_t fingerprint = SelectionFingerprint(
        state, static_cast<uint64_t>(options.algorithm),
        static_cast<uint64_t>(options.update));
    auto store = std::make_unique<CheckpointStore>(
        ckpt_config.path + ".compress", fingerprint);
    StatusOr<SelectionSnapshot> snapshot =
        LoadSelectionSnapshot(*store, fingerprint);
    if (snapshot.ok()) {
      // Greedy prefixes are k-stable, so a checkpoint from a larger-k run
      // restores a smaller-k run by truncation.
      if (snapshot->selected.size() > k) {
        snapshot->selected.resize(k);
        snapshot->benefits.resize(k);
      }
      bool ids_valid = true;
      for (const size_t id : snapshot->selected) {
        ids_valid = ids_valid && id < state.size();
      }
      if (ids_valid) {
        {
          ISUM_TRACE_SPAN("compress/ckpt-replay");
          state.ReplaySelection(snapshot->selected, options.update);
        }
        seed.selected = std::move(snapshot->selected);
        seed.selection_benefits = std::move(snapshot->benefits);
        obs::journal::CkptRestore(
            "compress", store->loaded_epoch(), seed.selected.size(),
            obs::SelectionOrderHash(seed.selected.data(),
                                    seed.selected.size()),
            snapshot->done && seed.selected.size() >= k ? 1 : 0);
      }
    }
    ckpt = std::make_unique<SelectionCheckpointer>(
        std::move(store), fingerprint, ckpt_config.every_rounds, "compress");
    ckpt->NoteRestored(seed.selected.size());
  }

  SelectionResult result;
  switch (options.algorithm) {
    case SelectionAlgorithm::kAllPairs: {
      if (options.num_threads > 1) {
        ThreadPool pool(static_cast<size_t>(options.num_threads));
        result = AllPairsGreedySelect(state, k, options.update, budget, &pool,
                                      ckpt.get(), std::move(seed));
      } else {
        result = AllPairsGreedySelect(state, k, options.update, budget,
                                      nullptr, ckpt.get(), std::move(seed));
      }
      break;
    }
    case SelectionAlgorithm::kSummaryFeatures:
      result = SummaryGreedySelect(state, k, options.update, budget,
                                   ckpt.get(), std::move(seed));
      break;
  }
  if (ckpt != nullptr) ckpt->OnDone(result);
  NoteStopReason(result.stop_reason);
  if (obs::journal::Enabled()) {
    double benefit_sum = 0.0;
    for (const double b : result.selection_benefits) benefit_sum += b;
    obs::journal::CompressEnd(
        result.selected.size(),
        obs::SelectionOrderHash(result.selected.data(),
                                result.selected.size()),
        benefit_sum, StopReasonToString(result.stop_reason));
  }
  return result;
}

}  // namespace

workload::CompressedWorkload Isum::Compress(size_t k) const {
  ISUM_TRACE_SPAN("compress/total");
  const CompressMetrics& metrics = CompressMetrics::Get();
  metrics.runs->Add(1);
  metrics.input_queries->Add(workload_->size());

  // One state serves both selection and weighing: weighing needs the
  // original (pre-update) signals, which the state retains, so the second
  // featurization pass the old Select+Weigh split paid is gone.
  const TimeBudget budget = EffectiveBudget(options_.budget);
  CompressionState state = [this] {
    // Featurization (and utility estimation) happens inside the
    // CompressionState constructor; give it its own phase span.
    ISUM_TRACE_SPAN("compress/feature-extraction");
    return MakeState();
  }();
  metrics.feature_classes->Add(state.num_classes());
  const SelectionResult selection = RunSelection(state, k, options_, budget);
  std::vector<double> weights;
  {
    ISUM_TRACE_SPAN("compress/weighing");
    weights = WeighSelectedQueries(*workload_, state, selection,
                                   options_.weighing);
  }
  workload::CompressedWorkload out;
  out.stop_reason = selection.stop_reason;
  out.entries.reserve(selection.selected.size());
  for (size_t i = 0; i < selection.selected.size(); ++i) {
    out.entries.push_back({selection.selected[i], weights[i],
                           selection.selection_benefits[i]});
  }
  metrics.selected_queries->Add(out.entries.size());
  return out;
}

}  // namespace isum::core
