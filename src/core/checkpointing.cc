#include "core/checkpointing.h"

#include <cstring>

#include "common/hash.h"
#include "obs/journal.h"

namespace isum::core {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t SelectionFingerprint(const CompressionState& state,
                              uint64_t algorithm, uint64_t update) {
  uint64_t h = HashBytes("compress");
  h = HashCombine(h, algorithm);
  h = HashCombine(h, update);
  h = HashCombine(h, state.size());
  h = HashCombine(h, state.feature_space().size());
  for (size_t i = 0; i < state.size(); ++i) {
    h = HashCombine(h, DoubleBits(state.original_utility(i)));
    for (const SparseVector::Entry& e : state.original_features(i).entries()) {
      h = HashCombine(h, static_cast<uint64_t>(e.feature));
      h = HashCombine(h, DoubleBits(e.weight));
    }
  }
  return h;
}

void EncodeSelectionSnapshot(const SelectionSnapshot& snapshot,
                             CheckpointWriter* writer) {
  writer->BeginSection(kSelectionMetaSection);
  writer->AppendU64(snapshot.fingerprint);
  writer->AppendU64(snapshot.done ? 1 : 0);
  writer->AppendU64(static_cast<uint64_t>(snapshot.stop_reason));
  writer->AppendU64(snapshot.selected.size());
  writer->EndSection();
  writer->BeginSection(kSelectionIdsSection);
  std::vector<uint64_t> ids;
  ids.reserve(snapshot.selected.size());
  for (const size_t id : snapshot.selected) ids.push_back(id);
  writer->AppendU64Vector(ids);
  writer->EndSection();
  writer->BeginSection(kSelectionBenefitsSection);
  writer->AppendF64Vector(snapshot.benefits);
  writer->EndSection();
}

StatusOr<SelectionSnapshot> DecodeSelectionSnapshot(
    const CheckpointReader& reader) {
  ISUM_ASSIGN_OR_RETURN(CheckpointCursor meta,
                        reader.Section(kSelectionMetaSection));
  SelectionSnapshot snapshot;
  ISUM_ASSIGN_OR_RETURN(snapshot.fingerprint, meta.ReadU64());
  ISUM_ASSIGN_OR_RETURN(const uint64_t done, meta.ReadU64());
  snapshot.done = done != 0;
  ISUM_ASSIGN_OR_RETURN(const uint64_t reason, meta.ReadU64());
  if (reason > static_cast<uint64_t>(StopReason::kFault)) {
    return Status::ParseError("checkpoint: stop_reason out of range");
  }
  snapshot.stop_reason = static_cast<StopReason>(reason);
  ISUM_ASSIGN_OR_RETURN(const uint64_t rounds, meta.ReadU64());
  ISUM_ASSIGN_OR_RETURN(CheckpointCursor ids_cursor,
                        reader.Section(kSelectionIdsSection));
  ISUM_ASSIGN_OR_RETURN(const std::vector<uint64_t> ids,
                        ids_cursor.ReadU64Vector());
  ISUM_ASSIGN_OR_RETURN(CheckpointCursor benefits_cursor,
                        reader.Section(kSelectionBenefitsSection));
  ISUM_ASSIGN_OR_RETURN(snapshot.benefits, benefits_cursor.ReadF64Vector());
  if (ids.size() != rounds || snapshot.benefits.size() != rounds) {
    return Status::ParseError("checkpoint: round count mismatch");
  }
  snapshot.selected.reserve(ids.size());
  for (const uint64_t id : ids) {
    snapshot.selected.push_back(static_cast<size_t>(id));
  }
  return snapshot;
}

StatusOr<SelectionSnapshot> LoadSelectionSnapshot(
    CheckpointStore& store, uint64_t expected_fingerprint) {
  ISUM_ASSIGN_OR_RETURN(const CheckpointReader reader, store.LoadLatest());
  ISUM_ASSIGN_OR_RETURN(SelectionSnapshot snapshot,
                        DecodeSelectionSnapshot(reader));
  if (snapshot.fingerprint != expected_fingerprint) {
    return Status::NotFound(
        "checkpoint fingerprint does not match this work unit");
  }
  return snapshot;
}

SelectionCheckpointer::SelectionCheckpointer(
    std::unique_ptr<CheckpointStore> store, uint64_t fingerprint,
    uint64_t every_rounds)
    : store_(std::move(store)),
      fingerprint_(fingerprint),
      every_rounds_(every_rounds == 0 ? 1 : every_rounds) {}

void SelectionCheckpointer::OnRound(const SelectionResult& result) {
  if (result.selected.size() < written_rounds_ + every_rounds_) return;
  Write(result, /*done=*/false);
}

void SelectionCheckpointer::OnDone(const SelectionResult& result) {
  Write(result, result.stop_reason == StopReason::kComplete);
}

void SelectionCheckpointer::Write(const SelectionResult& result, bool done) {
  SelectionSnapshot snapshot;
  snapshot.fingerprint = fingerprint_;
  snapshot.selected = result.selected;
  snapshot.benefits = result.selection_benefits;
  snapshot.done = done;
  snapshot.stop_reason = result.stop_reason;
  CheckpointWriter writer;
  EncodeSelectionSnapshot(snapshot, &writer);
  // Best-effort: a failed epoch write is counted (ckpt.write_failures) but
  // never fails the run — losing resumability must not lose the result.
  const uint64_t epoch = store_->next_epoch();
  if (!store_->WriteEpoch(writer).ok()) return;
  written_rounds_ = result.selected.size();
  obs::journal::CkptWrite("compress", epoch, result.selected.size(),
                          store_->last_write_bytes());
}

}  // namespace isum::core
