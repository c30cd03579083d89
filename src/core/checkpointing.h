#ifndef ISUM_CORE_CHECKPOINTING_H_
#define ISUM_CORE_CHECKPOINTING_H_

#include <memory>
#include <vector>

#include "common/checkpoint.h"
#include "core/greedy.h"

namespace isum::core {

/// Selection-phase checkpointing (docs/ROBUSTNESS.md, "Checkpoint/resume").
///
/// The greedy selection loop is a deterministic function of the
/// CompressionState it starts from, so a checkpoint does not serialize the
/// full mutable state (features, utilities, summary vector): it records
/// only the selected prefix — ids and benefits in selection order — and
/// restore *replays* that prefix through
/// CompressionState::ReplaySelection(), which reproduces every derived
/// structure bit-for-bit at O(rounds·n) cost, a small fraction of the
/// argmax work the resumed run skips. Bit-identity of the resumed run then
/// follows from the determinism GreedySelect already guarantees.

/// Section ids inside a selection checkpoint (isum-ckpt-v1 container).
inline constexpr uint32_t kSelectionMetaSection = 1;
inline constexpr uint32_t kSelectionIdsSection = 2;
inline constexpr uint32_t kSelectionBenefitsSection = 3;

/// What a selection checkpoint captures.
struct SelectionSnapshot {
  uint64_t fingerprint = 0;
  std::vector<size_t> selected;      ///< ids in selection order
  std::vector<double> benefits;      ///< raw-bit-preserved benefit per round
  bool done = false;                 ///< the checkpointed run finished
  StopReason stop_reason = StopReason::kComplete;
};

/// Identity of a selection work unit: hashes the state's *original*
/// signals (per-query features and utilities — which already encode the
/// workload, featurization scheme, and utility mode), the algorithm and
/// update strategy. The hash is seeded with the constant "compress", which
/// keeps fingerprints of existing checkpoints valid. k is deliberately
/// excluded: greedy prefixes are k-stable.
uint64_t SelectionFingerprint(const CompressionState& state,
                              uint64_t algorithm, uint64_t update);

/// Serializes `snapshot` into `writer` (sections above).
void EncodeSelectionSnapshot(const SelectionSnapshot& snapshot,
                             CheckpointWriter* writer);

/// Decodes one selection epoch. kParseError when the payload is
/// structurally inconsistent (stop reason out of range, id or benefit count
/// differing from the rounds in the meta section). `tracecat ckpt` uses
/// this to reject exactly the epochs resume rejects.
StatusOr<SelectionSnapshot> DecodeSelectionSnapshot(
    const CheckpointReader& reader);

/// Loads the newest valid epoch and decodes it. kNotFound when no epoch
/// exists or the stored fingerprint differs from `expected_fingerprint`;
/// kParseError as in DecodeSelectionSnapshot.
StatusOr<SelectionSnapshot> LoadSelectionSnapshot(
    CheckpointStore& store, uint64_t expected_fingerprint);

/// Round-boundary hook GreedySelect drives. Owns the epoch store;
/// write failures are best-effort (counted in ckpt.write_failures, never
/// fatal to the run).
class SelectionCheckpointer {
 public:
  SelectionCheckpointer(std::unique_ptr<CheckpointStore> store,
                        uint64_t fingerprint, uint64_t every_rounds);

  /// After each completed round: writes an epoch every `every_rounds`
  /// rounds beyond the last write.
  void OnRound(const SelectionResult& result);

  /// At loop exit: writes the final epoch carrying the stop reason (done
  /// iff the loop ran to completion).
  void OnDone(const SelectionResult& result);

  /// After a restore: aligns the periodic cadence so the first new epoch
  /// lands `every_rounds` past the restored prefix.
  void NoteRestored(size_t rounds) { written_rounds_ = rounds; }

  const CheckpointStore& store() const { return *store_; }

 private:
  void Write(const SelectionResult& result, bool done);

  std::unique_ptr<CheckpointStore> store_;
  uint64_t fingerprint_ = 0;
  uint64_t every_rounds_ = 1;
  size_t written_rounds_ = 0;
};

}  // namespace isum::core

#endif  // ISUM_CORE_CHECKPOINTING_H_
