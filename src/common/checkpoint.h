#ifndef ISUM_COMMON_CHECKPOINT_H_
#define ISUM_COMMON_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace isum {

/// Crash-safe checkpoint snapshots for long-running compression/tuning.
///
/// A checkpoint file is the versioned `isum-ckpt-v1` container:
///
///   magic "isum-ckpt-v1" (12 bytes)
///   u32   format version (currently 1)
///   u32   section count
///   per section:
///     u32  section id (caller-defined)
///     u64  payload length
///     payload bytes
///     u32  CRC-32 of the payload
///   u32   file CRC-32 over everything after the magic (excluding itself)
///
/// All integers are little-endian; doubles travel as their raw IEEE-754
/// bits so a restored value is bit-identical to the one written. The
/// per-section CRCs catch payload corruption; the trailing file CRC (plus
/// the length prefixes) catches truncation and torn tails, so a reader
/// either gets the exact bytes a writer produced or a clean kParseError.
/// Writes go through WriteFileAtomic (tmp + fsync + rename), so a crash
/// mid-write never damages the previous checkpoint.
///
/// CheckpointStore layers epoch rotation on top: files are named
/// `<base>.<fingerprint-16hex>.e<N>.ckpt`, the two most recent epochs are
/// kept, and LoadLatest falls back to the previous epoch when the newest
/// fails to parse. The fingerprint in the name gives each logical work
/// unit its own lineage so concurrent or sequential runs over different
/// inputs never resume from each other's state. Semantics and the recovery
/// workflow are documented in docs/ROBUSTNESS.md.

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len` bytes,
/// continuing from `seed` (pass a previous return value to extend).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// Builds an isum-ckpt-v1 image section by section. Appenders must be
/// called between BeginSection/EndSection; sections are written in call
/// order.
class CheckpointWriter {
 public:
  void BeginSection(uint32_t id);
  void EndSection();

  void AppendU64(uint64_t value);
  /// Raw IEEE-754 bits: restores bit-identically, including -0.0 and NaNs.
  void AppendF64(double value);
  void AppendBytes(const void* data, size_t len);
  /// u64 length prefix + bytes.
  void AppendString(std::string_view s);
  /// u64 count prefix + elements.
  void AppendU64Vector(const std::vector<uint64_t>& values);
  void AppendF64Vector(const std::vector<double>& values);

  /// The complete container image (magic, sections, CRCs).
  std::string Serialize() const;

  /// Serializes and writes crash-atomically via WriteFileAtomic.
  [[nodiscard]] Status WriteAtomic(const std::string& path) const;

 private:
  struct Section {
    uint32_t id = 0;
    std::string payload;
  };
  std::vector<Section> sections_;
  bool in_section_ = false;
};

/// Bounds-checked forward reader over one section's payload. Views the
/// parent CheckpointReader's buffer: valid only while that reader is alive
/// and unmoved.
class CheckpointCursor {
 public:
  explicit CheckpointCursor(std::string_view payload) : payload_(payload) {}

  StatusOr<uint64_t> ReadU64();
  StatusOr<double> ReadF64();
  StatusOr<std::string> ReadString();
  StatusOr<std::vector<uint64_t>> ReadU64Vector();
  StatusOr<std::vector<double>> ReadF64Vector();

  bool AtEnd() const { return pos_ == payload_.size(); }
  size_t remaining() const { return payload_.size() - pos_; }

 private:
  [[nodiscard]] Status Need(size_t bytes) const;

  std::string_view payload_;
  size_t pos_ = 0;
};

/// Parses and validates an isum-ckpt-v1 image. Any structural defect —
/// bad magic, unknown version, overrunning length prefix, CRC mismatch,
/// trailing garbage — is a kParseError; a successfully parsed reader holds
/// exactly the bytes some writer serialized.
class CheckpointReader {
 public:
  static StatusOr<CheckpointReader> Parse(std::string bytes);

  bool HasSection(uint32_t id) const;
  /// Cursor over the first section with `id` (kNotFound when absent).
  StatusOr<CheckpointCursor> Section(uint32_t id) const;
  std::vector<uint32_t> SectionIds() const;
  /// Payload length of the first section with `id` (0 when absent).
  size_t SectionSize(uint32_t id) const;
  size_t total_bytes() const { return bytes_.size(); }

 private:
  struct SectionSpan {
    uint32_t id = 0;
    size_t offset = 0;
    size_t length = 0;
  };
  std::string bytes_;
  std::vector<SectionSpan> sections_;
};

/// Reads a whole file (kNotFound when it does not exist).
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Crash-atomic write: `<path>.tmp` + fsync + rename over `path`, then
/// fsyncs the parent directory so the rename itself is durable.
[[nodiscard]] Status WriteFileAtomic(const std::string& path,
                                     std::string_view bytes);

/// Epoch-rotated checkpoint lineage (file naming documented above).
class CheckpointStore {
 public:
  /// `base_path` is the operator-facing location (e.g. --checkpoint=);
  /// `fingerprint` isolates this work unit's lineage under it.
  CheckpointStore(std::string base_path, uint64_t fingerprint);

  /// Serializes `writer` into the next epoch file atomically, then prunes
  /// every epoch older than the previous one (two most recent kept).
  [[nodiscard]] Status WriteEpoch(const CheckpointWriter& writer);

  /// Newest epoch that parses cleanly, skipping over torn/corrupt newer
  /// epochs (the "fall back to the previous epoch" contract). kNotFound
  /// when no valid epoch exists.
  StatusOr<CheckpointReader> LoadLatest();

  /// Epoch number the next WriteEpoch will use.
  uint64_t next_epoch() const { return next_epoch_; }
  /// Epoch LoadLatest returned (meaningful after a successful load).
  uint64_t loaded_epoch() const { return loaded_epoch_; }
  /// Serialized size of the last successful WriteEpoch.
  uint64_t last_write_bytes() const { return last_write_bytes_; }
  uint64_t fingerprint() const { return fingerprint_; }

  std::string EpochPath(uint64_t epoch) const;

 private:
  void ScanExistingEpochs();

  std::string base_;
  uint64_t fingerprint_ = 0;
  uint64_t next_epoch_ = 0;
  uint64_t loaded_epoch_ = 0;
  uint64_t last_write_bytes_ = 0;
};

/// ---- Ambient (process-wide) checkpoint configuration ----
///
/// Mirrors the ambient TimeBudget (common/deadline.h): bench drivers
/// install --checkpoint=/--checkpoint-every= once; library entry points
/// that were not handed an explicit config fall back to it.

struct CheckpointConfig {
  /// Base path for checkpoint files; empty disables checkpointing.
  std::string path;
  /// Write an epoch every N completed rounds (>= 1).
  uint64_t every_rounds = 16;

  bool enabled() const { return !path.empty(); }
};

/// Installs `config` process-wide (a disabled config clears it).
void InstallAmbientCheckpoint(const CheckpointConfig& config);

/// The currently installed ambient config (disabled if none).
CheckpointConfig AmbientCheckpoint();

/// `local` when enabled, otherwise the ambient config.
CheckpointConfig EffectiveCheckpoint(const CheckpointConfig& local);

}  // namespace isum

#endif  // ISUM_COMMON_CHECKPOINT_H_
