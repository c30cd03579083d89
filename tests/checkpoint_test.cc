// Tests for crash-safe checkpoint/resume (docs/ROBUSTNESS.md): the
// isum-ckpt-v1 container format, epoch rotation and fallback, the
// selection and enumeration snapshots, the `after` fault-spec field, and the chaos sweep proper — kill the run at
// every round boundary and assert the resumed output is bit-identical to
// an uninterrupted one.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/enumerator.h"
#include "common/checkpoint.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "core/checkpointing.h"
#include "core/isum.h"
#include "obs/metrics.h"
#include "tools/tracecat/tracecat.h"
#include "workload/workload_factory.h"

namespace isum {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// A per-test checkpoint base path under the gtest temp dir, with any
/// epoch files a previous run of the same test left behind removed (a
/// stale matching lineage would silently turn a fresh run into a resume).
std::string FreshCkptBase(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "isum_ckpt_test";
  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind(name + ".", 0) == 0) {
      std::filesystem::remove_all(entry.path());
    }
  }
  return (dir / name).string();
}

// --- Container format ---

TEST(CheckpointFormatTest, RoundTripPreservesEveryBit) {
  CheckpointWriter writer;
  writer.BeginSection(7);
  writer.AppendU64(0);
  writer.AppendU64(~0ull);
  writer.AppendF64(-0.0);
  writer.AppendF64(std::numeric_limits<double>::quiet_NaN());
  writer.AppendF64(5e-324);  // smallest denormal
  writer.AppendString(std::string_view("a\0b", 3));
  writer.AppendU64Vector({1, 2, 3});
  writer.AppendF64Vector({0.1, -1e308});
  writer.EndSection();
  writer.BeginSection(9);
  writer.AppendU64(42);
  writer.EndSection();

  StatusOr<CheckpointReader> reader = CheckpointReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->HasSection(7));
  EXPECT_TRUE(reader->HasSection(9));
  EXPECT_FALSE(reader->HasSection(8));
  EXPECT_EQ(reader->SectionIds(), (std::vector<uint32_t>{7, 9}));
  EXPECT_EQ(reader->SectionSize(9), 8u);

  StatusOr<CheckpointCursor> cursor = reader->Section(7);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->ReadU64().value(), 0u);
  EXPECT_EQ(cursor->ReadU64().value(), ~0ull);
  EXPECT_EQ(Bits(cursor->ReadF64().value()), Bits(-0.0));
  EXPECT_EQ(Bits(cursor->ReadF64().value()),
            Bits(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(Bits(cursor->ReadF64().value()), Bits(5e-324));
  EXPECT_EQ(cursor->ReadString().value(), std::string("a\0b", 3));
  EXPECT_EQ(cursor->ReadU64Vector().value(), (std::vector<uint64_t>{1, 2, 3}));
  const std::vector<double> doubles = cursor->ReadF64Vector().value();
  ASSERT_EQ(doubles.size(), 2u);
  EXPECT_EQ(Bits(doubles[0]), Bits(0.1));
  EXPECT_EQ(Bits(doubles[1]), Bits(-1e308));
  EXPECT_TRUE(cursor->AtEnd());
  // Reading past the end is an error, not UB.
  EXPECT_FALSE(cursor->ReadU64().ok());
}

TEST(CheckpointFormatTest, EveryTruncationIsRejected) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64Vector({10, 20, 30});
  writer.EndSection();
  const std::string image = writer.Serialize();
  // A torn tail of any length — including an empty file — must parse to a
  // clean error, never to stale-looking data.
  for (size_t len = 0; len < image.size(); ++len) {
    StatusOr<CheckpointReader> reader =
        CheckpointReader::Parse(image.substr(0, len));
    EXPECT_FALSE(reader.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(CheckpointFormatTest, EverySingleByteFlipIsRejected) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(123);
  writer.AppendF64(4.5);
  writer.EndSection();
  const std::string image = writer.Serialize();
  for (size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    StatusOr<CheckpointReader> reader = CheckpointReader::Parse(corrupt);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << i << " parsed";
  }
}

TEST(CheckpointFormatTest, TrailingGarbageIsRejected) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(1);
  writer.EndSection();
  StatusOr<CheckpointReader> reader =
      CheckpointReader::Parse(writer.Serialize() + "x");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(CheckpointFormatTest, VersionMismatchIsRejectedEvenWithValidCrc) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(1);
  writer.EndSection();
  std::string image = writer.Serialize();
  // Patch the format version (u32 right after the 12-byte magic) to 2 and
  // re-sign the trailing file CRC so only the version check can reject it.
  image[12] = 2;
  const uint32_t crc = Crc32(image.data() + 12, image.size() - 16);
  std::memcpy(image.data() + image.size() - 4, &crc, sizeof(crc));
  StatusOr<CheckpointReader> reader = CheckpointReader::Parse(std::move(image));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

// --- Epoch store ---

CheckpointWriter OneValueCheckpoint(uint64_t value) {
  CheckpointWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(value);
  writer.EndSection();
  return writer;
}

uint64_t FirstValue(CheckpointReader& reader) {
  return reader.Section(1).value().ReadU64().value();
}

TEST(CheckpointStoreTest, RotatesEpochsAndKeepsTwoNewest) {
  const std::string base = FreshCkptBase("store_rotate");
  CheckpointStore store(base, 0xabcdu);
  const uint64_t e0 = store.next_epoch();
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(10)).ok());
  const uint64_t e1 = store.next_epoch();
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(20)).ok());
  const uint64_t e2 = store.next_epoch();
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(30)).ok());
  EXPECT_FALSE(std::filesystem::exists(store.EpochPath(e0)));
  EXPECT_TRUE(std::filesystem::exists(store.EpochPath(e1)));
  EXPECT_TRUE(std::filesystem::exists(store.EpochPath(e2)));

  StatusOr<CheckpointReader> latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(FirstValue(*latest), 30u);
  EXPECT_EQ(store.loaded_epoch(), e2);
}

TEST(CheckpointStoreTest, FallsBackPastTornNewestEpoch) {
  const std::string base = FreshCkptBase("store_fallback");
  uint64_t good_epoch = 0;
  uint64_t torn_epoch = 0;
  {
    CheckpointStore store(base, 0xabcdu);
    good_epoch = store.next_epoch();
    ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(1)).ok());
    torn_epoch = store.next_epoch();
    ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(2)).ok());
    // Tear the newest epoch the way a crash mid-write-then-power-cut
    // would: keep only a prefix of its bytes.
    const std::string torn_path = store.EpochPath(torn_epoch);
    const std::string bytes = ReadFileToString(torn_path).value();
    ASSERT_TRUE(
        WriteFileAtomic(torn_path, std::string_view(bytes).substr(0, 9)).ok());
  }
  CheckpointStore store(base, 0xabcdu);
  StatusOr<CheckpointReader> latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(FirstValue(*latest), 1u);
  EXPECT_EQ(store.loaded_epoch(), good_epoch);
  // The next write does not reuse the torn epoch's number.
  EXPECT_GT(store.next_epoch(), torn_epoch);
}

TEST(CheckpointStoreTest, LineagesAreIsolatedByFingerprint) {
  const std::string base = FreshCkptBase("store_lineage");
  CheckpointStore store(base, 0x1111u);
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(7)).ok());
  // Same base path, different work-unit fingerprint: nothing to resume.
  CheckpointStore other(base, 0x2222u);
  EXPECT_EQ(other.LoadLatest().status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, CreatesMissingParentDirectories) {
  // "--checkpoint=ck/run" on a fresh machine: without the store creating
  // ck/, every best-effort epoch write fails silently and a later "resume"
  // quietly starts from scratch.
  const std::string base =
      FreshCkptBase("store_mkdir") + ".d/nested/deeper/run";
  CheckpointStore store(base, 0xABCDu);
  ASSERT_TRUE(store.WriteEpoch(OneValueCheckpoint(42)).ok());
  CheckpointStore reopened(base, 0xABCDu);
  auto reader = reopened.LoadLatest();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
}

// --- Selection snapshots ---

TEST(SelectionSnapshotTest, RoundTripsThroughStore) {
  const std::string base = FreshCkptBase("sel_roundtrip");
  core::SelectionSnapshot snapshot;
  snapshot.fingerprint = 111;
  snapshot.selected = {4, 1, 9};
  snapshot.benefits = {0.5, 0.25, 0.125};
  snapshot.stop_reason = StopReason::kDeadline;
  CheckpointWriter writer;
  core::EncodeSelectionSnapshot(snapshot, &writer);
  CheckpointStore store(base, snapshot.fingerprint);
  ASSERT_TRUE(store.WriteEpoch(writer).ok());

  StatusOr<core::SelectionSnapshot> loaded =
      core::LoadSelectionSnapshot(store, snapshot.fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->selected, snapshot.selected);
  ASSERT_EQ(loaded->benefits.size(), snapshot.benefits.size());
  for (size_t i = 0; i < snapshot.benefits.size(); ++i) {
    EXPECT_EQ(Bits(loaded->benefits[i]), Bits(snapshot.benefits[i]));
  }
  EXPECT_FALSE(loaded->done);
  EXPECT_EQ(loaded->stop_reason, StopReason::kDeadline);

  // A different expected fingerprint must refuse the payload outright.
  EXPECT_EQ(core::LoadSelectionSnapshot(store, 222).status().code(),
            StatusCode::kNotFound);
}

TEST(SelectionSnapshotTest, InconsistentPayloadIsAParseError) {
  const std::string base = FreshCkptBase("sel_inconsistent");
  // Hand-build a snapshot whose meta claims 5 rounds but whose ids section
  // holds 2 — and one with an out-of-range stop reason.
  const auto write_meta = [&](uint64_t rounds, uint64_t reason) {
    CheckpointWriter writer;
    writer.BeginSection(core::kSelectionMetaSection);
    writer.AppendU64(111);
    writer.AppendU64(0);
    writer.AppendU64(reason);
    writer.AppendU64(rounds);
    writer.EndSection();
    writer.BeginSection(core::kSelectionIdsSection);
    writer.AppendU64Vector({3, 4});
    writer.EndSection();
    writer.BeginSection(core::kSelectionBenefitsSection);
    writer.AppendF64Vector({1.0, 2.0});
    writer.EndSection();
    return writer;
  };
  CheckpointStore bad_rounds(base + "_rounds", 111);
  ASSERT_TRUE(bad_rounds.WriteEpoch(write_meta(5, 0)).ok());
  EXPECT_EQ(core::LoadSelectionSnapshot(bad_rounds, 111).status().code(),
            StatusCode::kParseError);
  CheckpointStore bad_reason(base + "_reason", 111);
  ASSERT_TRUE(bad_reason.WriteEpoch(write_meta(2, 99)).ok());
  EXPECT_EQ(core::LoadSelectionSnapshot(bad_reason, 111).status().code(),
            StatusCode::kParseError);
}

// --- `after` fault-spec field ---

class FaultAfterTest : public ::testing::Test {
 protected:
  ~FaultAfterTest() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultAfterTest, RuleStaysDormantForFirstNInvocations) {
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("{\"site\":\"s\",\"kind\":\"error\",\"p\":1.0,"
                             "\"after\":3}")
                  .ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(CheckFault("s").ok()) << "invocation " << i;
  }
  // Fires deterministically at exactly invocation N and stays on.
  EXPECT_FALSE(CheckFault("s").ok());
  EXPECT_FALSE(CheckFault("s").ok());
  // Other sites never consume this rule's invocation stream.
  EXPECT_TRUE(CheckFault("unrelated").ok());
}

TEST_F(FaultAfterTest, DefaultAfterIsZero) {
  ASSERT_TRUE(
      FaultInjector::Global()
          .Configure("{\"site\":\"s\",\"kind\":\"error\",\"p\":1.0}")
          .ok());
  EXPECT_FALSE(CheckFault("s").ok());
}

TEST_F(FaultAfterTest, NegativeAfterIsRejected) {
  const Status status = FaultInjector::Global().Configure(
      "{\"site\":\"s\",\"kind\":\"error\",\"p\":1.0,\"after\":-1}");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(FaultInjector::Armed());
}

// --- Chaos sweep: kill at every round boundary, resume, compare ---

class CheckpointResumeTest : public ::testing::Test {
 protected:
  CheckpointResumeTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 2;
    env_ = workload::MakeTpch(gen);
  }
  ~CheckpointResumeTest() override {
    FaultInjector::Global().Reset();
    InstallAmbientCheckpoint(CheckpointConfig());
  }

  /// Arms a deterministic kill at round `round` of `site`.
  static void KillAtRound(const char* site, size_t round) {
    const std::string spec = std::string("{\"site\":\"") + site +
                             "\",\"kind\":\"error\",\"p\":1.0,\"after\":" +
                             std::to_string(round) + "}";
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
  }

  static void ExpectSameEntries(const workload::CompressedWorkload& got,
                                const workload::CompressedWorkload& want) {
    ASSERT_EQ(got.entries.size(), want.entries.size());
    for (size_t i = 0; i < want.entries.size(); ++i) {
      EXPECT_EQ(got.entries[i].query_index, want.entries[i].query_index)
          << "round " << i;
      EXPECT_EQ(Bits(got.entries[i].weight), Bits(want.entries[i].weight))
          << "round " << i;
      EXPECT_EQ(Bits(got.entries[i].selection_benefit),
                Bits(want.entries[i].selection_benefit))
          << "round " << i;
    }
  }

  std::optional<workload::GeneratedWorkload> env_;
};

TEST_F(CheckpointResumeTest, CompressionResumesBitIdenticalAtEveryBoundary) {
  struct Variant {
    const char* name;
    core::SelectionAlgorithm algorithm;
  };
  const Variant variants[] = {
      {"summary_t1", core::SelectionAlgorithm::kSummaryFeatures},
      {"allpairs_t1", core::SelectionAlgorithm::kAllPairs},
  };
  const size_t k = 8;
  for (const Variant& variant : variants) {
    core::IsumOptions base;
    base.algorithm = variant.algorithm;
    const workload::CompressedWorkload full =
        core::Isum(&*env_->workload, base).Compress(k);
    ASSERT_EQ(full.stop_reason, StopReason::kComplete);
    ASSERT_GT(full.entries.size(), 2u);

    for (size_t round = 1; round < full.entries.size(); ++round) {
      core::IsumOptions options = base;
      options.checkpoint.path = FreshCkptBase(
          std::string("kill_") + variant.name + "_" + std::to_string(round));
      options.checkpoint.every_rounds = 1;

      KillAtRound("compress.select", round);
      const workload::CompressedWorkload killed =
          core::Isum(&*env_->workload, options).Compress(k);
      EXPECT_EQ(killed.stop_reason, StopReason::kFault)
          << variant.name << " round " << round;
      ASSERT_EQ(killed.entries.size(), round);
      FaultInjector::Global().Reset();

      const workload::CompressedWorkload resumed =
          core::Isum(&*env_->workload, options).Compress(k);
      EXPECT_EQ(resumed.stop_reason, StopReason::kComplete)
          << variant.name << " round " << round;
      ExpectSameEntries(resumed, full);
    }
  }
}

TEST_F(CheckpointResumeTest, ResumedCompleteRunIsStillBitIdentical) {
  // Resuming after the run already finished (checkpoint marked done) must
  // reproduce the final result without rerunning selection.
  const size_t k = 6;
  core::IsumOptions options;
  options.checkpoint.path = FreshCkptBase("resume_done");
  options.checkpoint.every_rounds = 1;
  const workload::CompressedWorkload first =
      core::Isum(&*env_->workload, options).Compress(k);
  ASSERT_EQ(first.stop_reason, StopReason::kComplete);
  const workload::CompressedWorkload again =
      core::Isum(&*env_->workload, options).Compress(k);
  EXPECT_EQ(again.stop_reason, StopReason::kComplete);
  ExpectSameEntries(again, first);
}

TEST_F(CheckpointResumeTest, CorruptEpochFallsBackAndStillMatches) {
  // Corrupting the newest epoch between kill and resume exercises the
  // fallback path end to end: the previous epoch restores a shorter prefix
  // and the rerun must still converge to the identical result.
  const size_t k = 8;
  const workload::CompressedWorkload full =
      core::Isum(&*env_->workload).Compress(k);
  ASSERT_GT(full.entries.size(), 3u);

  core::IsumOptions options;
  options.checkpoint.path = FreshCkptBase("corrupt_fallback");
  options.checkpoint.every_rounds = 1;
  KillAtRound("compress.select", 3);
  (void)core::Isum(&*env_->workload, options).Compress(k);
  FaultInjector::Global().Reset();

  // Flip one byte in the newest .compress epoch file.
  const std::filesystem::path dir =
      std::filesystem::path(options.checkpoint.path).parent_path();
  std::filesystem::path newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("corrupt_fallback.compress.", 0) == 0 &&
        (newest.empty() || file > newest.filename().string())) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  std::string bytes = ReadFileToString(newest.string()).value();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  ASSERT_TRUE(WriteFileAtomic(newest.string(), bytes).ok());

  const workload::CompressedWorkload resumed =
      core::Isum(&*env_->workload, options).Compress(k);
  EXPECT_EQ(resumed.stop_reason, StopReason::kComplete);
  ExpectSameEntries(resumed, full);
}

TEST_F(CheckpointResumeTest, EnumerationResumesBitIdentical) {
  std::vector<advisor::WeightedQuery> queries;
  for (size_t i = 0; i < env_->workload->size(); ++i) {
    queries.push_back({&env_->workload->query(i).bound, 1.0});
  }
  advisor::TuningOptions base;
  base.max_indexes = 5;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult full = advisor.Tune(queries, base);
  ASSERT_EQ(full.stop_reason, StopReason::kComplete);
  ASSERT_GE(full.configuration.size(), 2u);

  for (size_t round = 1; round < full.configuration.size(); ++round) {
    advisor::TuningOptions options = base;
    options.checkpoint.path =
        FreshCkptBase("enum_kill_" + std::to_string(round));
    options.checkpoint.every_rounds = 1;

    KillAtRound("advisor.enumerate", round);
    const advisor::TuningResult killed = advisor.Tune(queries, options);
    EXPECT_EQ(killed.stop_reason, StopReason::kFault) << "round " << round;
    EXPECT_EQ(killed.configuration.size(), round);
    FaultInjector::Global().Reset();

    const advisor::TuningResult resumed = advisor.Tune(queries, options);
    EXPECT_EQ(resumed.stop_reason, StopReason::kComplete) << "round " << round;
    EXPECT_EQ(resumed.configuration.indexes(),
              full.configuration.indexes())
        << "round " << round;
    EXPECT_EQ(Bits(resumed.initial_cost), Bits(full.initial_cost));
    EXPECT_EQ(Bits(resumed.final_cost), Bits(full.final_cost))
        << "round " << round;
    EXPECT_EQ(resumed.configurations_explored, full.configurations_explored)
        << "round " << round;
  }
}

TEST_F(CheckpointResumeTest, OlderEnumEpochResumesFromSectionsOneToThree) {
  // Older writers stored a what-if memo beside the snapshot: section 4
  // (query id, configuration hash, cost) and later section 5 (query id,
  // pool ids, cost). A resume reads only sections 1-3, so such an epoch
  // restores and the run finishes bit-identically, whatever the extra
  // section holds.
  std::vector<advisor::WeightedQuery> queries;
  for (size_t i = 0; i < env_->workload->size(); ++i) {
    queries.push_back({&env_->workload->query(i).bound, 1.0});
  }
  advisor::TuningOptions base;
  base.max_indexes = 5;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult full = advisor.Tune(queries, base);
  ASSERT_GE(full.configuration.size(), 3u);
  obs::Counter* const restores =
      obs::MetricsRegistry::Global().GetCounter("ckpt.restores");

  for (const uint32_t section : {4u, 5u}) {
    const std::string name = "enum_old_section" + std::to_string(section);
    advisor::TuningOptions options = base;
    options.checkpoint.path = FreshCkptBase(name);
    options.checkpoint.every_rounds = 1;
    KillAtRound("advisor.enumerate", 2);
    (void)advisor.Tune(queries, options);
    FaultInjector::Global().Reset();

    const std::filesystem::path dir =
        std::filesystem::path(options.checkpoint.path).parent_path();
    size_t rewritten = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string file = entry.path().filename().string();
      if (file.rfind(name + ".enum.", 0) != 0) continue;
      StatusOr<CheckpointReader> reader = CheckpointReader::Parse(
          ReadFileToString(entry.path().string()).value());
      ASSERT_TRUE(reader.ok());
      CheckpointWriter writer;
      for (const uint32_t id : {1u, 2u, 3u}) {
        StatusOr<CheckpointCursor> cursor = reader->Section(id);
        ASSERT_TRUE(cursor.ok()) << "section " << id;
        writer.BeginSection(id);
        while (!cursor->AtEnd()) writer.AppendU64(cursor->ReadU64().value());
        writer.EndSection();
      }
      // One memo entry claiming a cost no run could produce; a resume that
      // read it would diverge.
      writer.BeginSection(section);
      writer.AppendU64(1);
      writer.AppendU64(0);
      writer.AppendF64(-1.0);
      writer.EndSection();
      ASSERT_TRUE(
          WriteFileAtomic(entry.path().string(), writer.Serialize()).ok());
      StatusOr<std::string> report =
          tracecat::InspectCheckpoint(entry.path().string());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_NE(report->find("enumeration snapshot"), std::string::npos);
      ++rewritten;
    }
    ASSERT_GT(rewritten, 0u);

    const uint64_t restores_before = restores->Value();
    const advisor::TuningResult resumed = advisor.Tune(queries, options);
    EXPECT_EQ(restores->Value(), restores_before + 1) << "section " << section;
    EXPECT_EQ(resumed.stop_reason, StopReason::kComplete);
    EXPECT_EQ(resumed.configuration.indexes(), full.configuration.indexes())
        << "section " << section;
    EXPECT_EQ(Bits(resumed.initial_cost), Bits(full.initial_cost));
    EXPECT_EQ(Bits(resumed.final_cost), Bits(full.final_cost))
        << "section " << section;
    EXPECT_EQ(resumed.configurations_explored, full.configurations_explored);
  }
}

// --- tracecat ckpt ---

TEST_F(CheckpointResumeTest, TracecatInspectsWrittenEpochs) {
  core::IsumOptions options;
  options.checkpoint.path = FreshCkptBase("inspect");
  options.checkpoint.every_rounds = 1;
  const workload::CompressedWorkload out =
      core::Isum(&*env_->workload, options).Compress(5);
  ASSERT_EQ(out.stop_reason, StopReason::kComplete);

  const std::filesystem::path dir =
      std::filesystem::path(options.checkpoint.path).parent_path();
  std::string epoch_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("inspect.compress.", 0) == 0) {
      epoch_path = entry.path().string();
      break;
    }
  }
  ASSERT_FALSE(epoch_path.empty());

  StatusOr<std::string> report = tracecat::InspectCheckpoint(epoch_path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("isum-ckpt-v1"), std::string::npos);
  EXPECT_NE(report->find("selection snapshot"), std::string::npos);
  EXPECT_NE(report->find("round(s)"), std::string::npos);

  // An enumeration epoch: meta, winners and costs only.
  std::vector<advisor::WeightedQuery> queries;
  for (size_t i = 0; i < env_->workload->size(); ++i) {
    queries.push_back({&env_->workload->query(i).bound, 1.0});
  }
  advisor::TuningOptions tuning;
  tuning.max_indexes = 3;
  tuning.checkpoint = options.checkpoint;
  ASSERT_EQ(advisor::DtaStyleAdvisor(env_->cost_model.get())
                .Tune(queries, tuning)
                .stop_reason,
            StopReason::kComplete);
  std::string enum_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("inspect.enum.", 0) == 0) {
      enum_path = entry.path().string();
      break;
    }
  }
  ASSERT_FALSE(enum_path.empty());
  report = tracecat::InspectCheckpoint(enum_path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("enumeration snapshot"), std::string::npos);
  EXPECT_NE(report->find("config(s) explored"), std::string::npos);
  EXPECT_EQ(report->find("section 4"), std::string::npos);
  EXPECT_EQ(report->find("section 5"), std::string::npos);
  EXPECT_EQ(report->find("cached"), std::string::npos);

  // Verification is the same decode: a damaged file errors instead.
  std::string bytes = ReadFileToString(epoch_path).value();
  bytes[20] = static_cast<char>(bytes[20] ^ 0xff);
  const std::string damaged = epoch_path + ".damaged";
  ASSERT_TRUE(WriteFileAtomic(damaged, bytes).ok());
  EXPECT_FALSE(tracecat::InspectCheckpoint(damaged).ok());
  EXPECT_EQ(tracecat::InspectCheckpoint(damaged + ".missing").status().code(),
            StatusCode::kNotFound);
}

TEST(TracecatCkptTest, VerifyRejectsExactlyTheEpochsResumeRejects) {
  // Each epoch is written under its lineage's file name, as the writers
  // name them; the decoder a resuming run uses and `tracecat ckpt verify`
  // must give the same verdict on it.
  const auto selection = [](uint64_t reason, uint64_t rounds,
                            const std::vector<double>& benefits,
                            bool benefits_section) {
    CheckpointWriter writer;
    writer.BeginSection(core::kSelectionMetaSection);
    for (const uint64_t v : {uint64_t{111}, uint64_t{0}, reason, rounds}) {
      writer.AppendU64(v);
    }
    writer.EndSection();
    writer.BeginSection(core::kSelectionIdsSection);
    writer.AppendU64Vector({3, 4});
    writer.EndSection();
    if (benefits_section) {
      writer.BeginSection(core::kSelectionBenefitsSection);
      writer.AppendF64Vector(benefits);
      writer.EndSection();
    }
    return writer;
  };
  const auto enumeration = [](uint64_t reason, bool costs_section) {
    CheckpointWriter writer;
    writer.BeginSection(1);
    for (const uint64_t v : {uint64_t{111}, uint64_t{1}, reason, uint64_t{9},
                             Bits(10.0), Bits(8.0)}) {
      writer.AppendU64(v);
    }
    writer.EndSection();
    writer.BeginSection(2);
    writer.AppendU64Vector({0, 2});
    writer.EndSection();
    if (costs_section) {
      writer.BeginSection(3);
      writer.AppendF64Vector({4.0, 4.0});
      writer.EndSection();
    }
    return writer;
  };
  struct Case {
    const char* name;
    bool compress;  ///< `.compress` lineage, else `.enum`
    CheckpointWriter epoch;
    bool valid;
  };
  std::vector<Case> cases;
  cases.push_back({"sel_ok", true, selection(1, 2, {1.0, 2.0}, true), true});
  cases.push_back(
      {"sel_reason", true, selection(99, 2, {1.0, 2.0}, true), false});
  cases.push_back(
      {"sel_rounds", true, selection(0, 5, {1.0, 2.0}, true), false});
  cases.push_back({"sel_benefits", true, selection(0, 2, {1.0}, true), false});
  cases.push_back(
      {"sel_no_benefits", true, selection(0, 2, {1.0, 2.0}, false), false});
  cases.push_back({"enum_ok", false, enumeration(2, true), true});
  cases.push_back({"enum_reason", false, enumeration(99, true), false});
  cases.push_back({"enum_no_costs", false, enumeration(0, false), false});

  for (const Case& c : cases) {
    CheckpointStore store(
        FreshCkptBase(c.name) + (c.compress ? ".compress" : ".enum"), 111);
    const uint64_t epoch = store.next_epoch();
    ASSERT_TRUE(store.WriteEpoch(c.epoch).ok()) << c.name;
    StatusOr<CheckpointReader> reader = store.LoadLatest();
    ASSERT_TRUE(reader.ok()) << c.name;
    const bool decoded = c.compress
                             ? core::DecodeSelectionSnapshot(*reader).ok()
                             : advisor::DecodeEnumSnapshot(*reader).ok();
    EXPECT_EQ(decoded, c.valid) << c.name;
    StatusOr<std::string> report =
        tracecat::InspectCheckpoint(store.EpochPath(epoch));
    EXPECT_EQ(report.ok(), decoded) << c.name;
    if (report.ok()) {
      EXPECT_NE(report->find(c.compress ? "selection snapshot"
                                        : "enumeration snapshot"),
                std::string::npos)
          << c.name;
    }
  }

  // Any other file name is listed as a container only.
  CheckpointStore plain(FreshCkptBase("plain"), 111);
  const uint64_t epoch = plain.next_epoch();
  ASSERT_TRUE(plain.WriteEpoch(selection(99, 2, {1.0}, true)).ok());
  StatusOr<std::string> report =
      tracecat::InspectCheckpoint(plain.EpochPath(epoch));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("section 3"), std::string::npos);
  EXPECT_EQ(report->find("snapshot"), std::string::npos);
}

}  // namespace
}  // namespace isum
