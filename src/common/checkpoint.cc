#include "common/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>

#include "common/check.h"
#include "common/mutex.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace isum {

namespace {

constexpr char kMagic[] = "isum-ckpt-v1";  // 12 bytes, no terminator on disk
constexpr size_t kMagicLen = 12;
constexpr uint32_t kVersion = 1;

Mutex g_ambient_ckpt_mu;
CheckpointConfig g_ambient_ckpt ISUM_GUARDED_BY(g_ambient_ckpt_mu);

struct CkptMetrics {
  obs::Counter* writes;
  obs::Counter* write_failures;
  obs::Counter* restores;
  obs::Counter* rejected;
  obs::Counter* bytes_written;

  static const CkptMetrics& Get() {
    static const CkptMetrics m = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return CkptMetrics{registry.GetCounter("ckpt.writes"),
                         registry.GetCounter("ckpt.write_failures"),
                         registry.GetCounter("ckpt.restores"),
                         registry.GetCounter("ckpt.rejected"),
                         registry.GetCounter("ckpt.bytes_written")};
    }();
    return m;
  }
};

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t GetU64(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

/// Splits `path` into (directory, filename). Paths without a separator get
/// directory ".".
void SplitPath(const std::string& path, std::string* dir, std::string* file) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    // A move, not `*dir = "."`: GCC 12 at -O2 reports a false -Wrestrict
    // overlap inside that assignment's inlined copy.
    *dir = std::string(".");
    *file = path;
  } else {
    *dir = slash == 0 ? "/" : path.substr(0, slash);
    *file = path.substr(slash + 1);
  }
}

Status ParseError(const std::string& what) {
  return Status::ParseError("checkpoint: " + what);
}

/// Creates `dir` and any missing ancestors (mkdir -p). Existing directories
/// are fine; the final component failing is reported.
bool MakeDirs(const std::string& dir) {
  if (dir.empty() || dir == "." || dir == "/") return true;
  std::string prefix;
  size_t pos = 0;
  while (pos <= dir.size()) {
    const size_t slash = dir.find('/', pos);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    if (!prefix.empty() && prefix != "/") {
      if (mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) return false;
    }
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  // Table generated on first use from the reflected IEEE polynomial.
  static const uint32_t* const table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

/// ---- CheckpointWriter ----

void CheckpointWriter::BeginSection(uint32_t id) {
  ISUM_CHECK_MSG(!in_section_, "BeginSection inside an open section");
  in_section_ = true;
  sections_.push_back(Section{id, {}});
}

void CheckpointWriter::EndSection() {
  ISUM_CHECK_MSG(in_section_, "EndSection without BeginSection");
  in_section_ = false;
}

void CheckpointWriter::AppendU64(uint64_t value) {
  ISUM_CHECK_MSG(in_section_, "append outside a section");
  PutU64(&sections_.back().payload, value);
}

void CheckpointWriter::AppendF64(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64(bits);
}

void CheckpointWriter::AppendBytes(const void* data, size_t len) {
  ISUM_CHECK_MSG(in_section_, "append outside a section");
  sections_.back().payload.append(static_cast<const char*>(data), len);
}

void CheckpointWriter::AppendString(std::string_view s) {
  AppendU64(s.size());
  AppendBytes(s.data(), s.size());
}

void CheckpointWriter::AppendU64Vector(const std::vector<uint64_t>& values) {
  AppendU64(values.size());
  for (const uint64_t v : values) AppendU64(v);
}

void CheckpointWriter::AppendF64Vector(const std::vector<double>& values) {
  AppendU64(values.size());
  for (const double v : values) AppendF64(v);
}

std::string CheckpointWriter::Serialize() const {
  ISUM_CHECK_MSG(!in_section_, "Serialize with an open section");
  std::string out;
  out.append(kMagic, kMagicLen);
  PutU32(&out, kVersion);
  PutU32(&out, static_cast<uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    PutU32(&out, s.id);
    PutU64(&out, s.payload.size());
    out.append(s.payload);
    PutU32(&out, Crc32(s.payload.data(), s.payload.size()));
  }
  PutU32(&out, Crc32(out.data() + kMagicLen, out.size() - kMagicLen));
  return out;
}

Status CheckpointWriter::WriteAtomic(const std::string& path) const {
  return WriteFileAtomic(path, Serialize());
}

/// ---- CheckpointCursor ----

Status CheckpointCursor::Need(size_t bytes) const {
  if (payload_.size() - pos_ < bytes) {
    return ParseError("section payload underrun");
  }
  return Status::OK();
}

StatusOr<uint64_t> CheckpointCursor::ReadU64() {
  ISUM_RETURN_IF_ERROR(Need(8));
  const uint64_t v = GetU64(payload_.data() + pos_);
  pos_ += 8;
  return v;
}

StatusOr<double> CheckpointCursor::ReadF64() {
  ISUM_ASSIGN_OR_RETURN(const uint64_t bits, ReadU64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

StatusOr<std::string> CheckpointCursor::ReadString() {
  ISUM_ASSIGN_OR_RETURN(const uint64_t len, ReadU64());
  ISUM_RETURN_IF_ERROR(Need(len));
  std::string s(payload_.substr(pos_, len));
  pos_ += len;
  return s;
}

StatusOr<std::vector<uint64_t>> CheckpointCursor::ReadU64Vector() {
  ISUM_ASSIGN_OR_RETURN(const uint64_t count, ReadU64());
  if (count > remaining() / 8) return ParseError("vector length overruns");
  ISUM_RETURN_IF_ERROR(Need(count * 8));
  std::vector<uint64_t> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    out.push_back(GetU64(payload_.data() + pos_));
    pos_ += 8;
  }
  return out;
}

StatusOr<std::vector<double>> CheckpointCursor::ReadF64Vector() {
  ISUM_ASSIGN_OR_RETURN(const uint64_t count, ReadU64());
  if (count > remaining() / 8) return ParseError("vector length overruns");
  ISUM_RETURN_IF_ERROR(Need(count * 8));
  std::vector<double> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t bits = GetU64(payload_.data() + pos_);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    out.push_back(v);
    pos_ += 8;
  }
  return out;
}

/// ---- CheckpointReader ----

StatusOr<CheckpointReader> CheckpointReader::Parse(std::string bytes) {
  CheckpointReader reader;
  reader.bytes_ = std::move(bytes);
  const std::string& b = reader.bytes_;
  // Header: magic + version + section count; trailer: file CRC.
  if (b.size() < kMagicLen + 4 + 4 + 4) {
    return ParseError("truncated header");
  }
  if (std::memcmp(b.data(), kMagic, kMagicLen) != 0) {
    return ParseError("bad magic (not an isum-ckpt-v1 file)");
  }
  const uint32_t version = GetU32(b.data() + kMagicLen);
  if (version != kVersion) {
    return ParseError(StrFormat("unsupported version %u (expected %u)",
                                version, kVersion));
  }
  const uint32_t file_crc = GetU32(b.data() + b.size() - 4);
  const uint32_t computed =
      Crc32(b.data() + kMagicLen, b.size() - kMagicLen - 4);
  if (file_crc != computed) {
    return ParseError("file CRC mismatch (torn or corrupt)");
  }
  const uint32_t section_count = GetU32(b.data() + kMagicLen + 4);
  size_t pos = kMagicLen + 8;
  const size_t end = b.size() - 4;  // file CRC excluded from the walk
  for (uint32_t i = 0; i < section_count; ++i) {
    if (end - pos < 12) return ParseError("truncated section header");
    const uint32_t id = GetU32(b.data() + pos);
    const uint64_t len = GetU64(b.data() + pos + 4);
    pos += 12;
    if (end - pos < len || end - pos - len < 4) {
      return ParseError("section length overruns file");
    }
    const uint32_t crc = GetU32(b.data() + pos + len);
    if (crc != Crc32(b.data() + pos, len)) {
      return ParseError(StrFormat("section %u CRC mismatch", id));
    }
    reader.sections_.push_back(SectionSpan{id, pos, static_cast<size_t>(len)});
    pos += len + 4;
  }
  if (pos != end) return ParseError("trailing bytes after last section");
  return reader;
}

bool CheckpointReader::HasSection(uint32_t id) const {
  for (const SectionSpan& s : sections_) {
    if (s.id == id) return true;
  }
  return false;
}

StatusOr<CheckpointCursor> CheckpointReader::Section(uint32_t id) const {
  for (const SectionSpan& s : sections_) {
    if (s.id == id) {
      return CheckpointCursor(
          std::string_view(bytes_).substr(s.offset, s.length));
    }
  }
  return Status::NotFound(StrFormat("checkpoint: no section %u", id));
}

std::vector<uint32_t> CheckpointReader::SectionIds() const {
  std::vector<uint32_t> ids;
  ids.reserve(sections_.size());
  for (const SectionSpan& s : sections_) ids.push_back(s.id);
  return ids;
}

size_t CheckpointReader::SectionSize(uint32_t id) const {
  for (const SectionSpan& s : sections_) {
    if (s.id == id) return s.length;
  }
  return 0;
}

/// ---- File helpers ----

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read error on " + path);
  return out;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot create " + tmp);
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // Flush libc buffers, then force the data to stable storage before the
  // rename publishes it: rename-before-fsync could publish a torn file.
  const bool flushed = std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    unlink(tmp.c_str());
    return Status::Internal("short or failed write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    unlink(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  // Make the rename itself durable.
  std::string dir;
  std::string file;
  SplitPath(path, &dir, &file);
  const int dfd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    fsync(dfd);
    close(dfd);
  }
  return Status::OK();
}

/// ---- CheckpointStore ----

CheckpointStore::CheckpointStore(std::string base_path, uint64_t fingerprint)
    : base_(std::move(base_path)), fingerprint_(fingerprint) {
  // A base like "ckpt/run" on a fresh machine has no parent directory yet;
  // without this every best-effort epoch write fails silently and a later
  // "resume" quietly starts from scratch.
  std::string dir;
  std::string file;
  SplitPath(base_, &dir, &file);
  MakeDirs(dir);
  ScanExistingEpochs();
}

std::string CheckpointStore::EpochPath(uint64_t epoch) const {
  return StrFormat("%s.%016llx.e%llu.ckpt", base_.c_str(),
                   static_cast<unsigned long long>(fingerprint_),
                   static_cast<unsigned long long>(epoch));
}

void CheckpointStore::ScanExistingEpochs() {
  std::string dir;
  std::string file;
  SplitPath(base_, &dir, &file);
  const std::string prefix = StrFormat(
      "%s.%016llx.e", file.c_str(), static_cast<unsigned long long>(fingerprint_));
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;  // no directory yet: no epochs
  uint64_t max_epoch = 0;
  bool any = false;
  while (struct dirent* entry = readdir(d)) {
    const std::string_view name(entry->d_name);
    if (name.size() <= prefix.size() + 5) continue;  // ".ckpt" suffix
    if (name.substr(0, prefix.size()) != prefix) continue;
    if (name.substr(name.size() - 5) != ".ckpt") continue;
    const std::string digits(
        name.substr(prefix.size(), name.size() - prefix.size() - 5));
    char* endp = nullptr;
    const uint64_t epoch = std::strtoull(digits.c_str(), &endp, 10);
    if (endp == nullptr || *endp != '\0' || digits.empty()) continue;
    if (!any || epoch > max_epoch) max_epoch = epoch;
    any = true;
  }
  closedir(d);
  if (any) next_epoch_ = max_epoch + 1;
}

Status CheckpointStore::WriteEpoch(const CheckpointWriter& writer) {
  const CkptMetrics& metrics = CkptMetrics::Get();
  const std::string image = writer.Serialize();
  const Status status = WriteFileAtomic(EpochPath(next_epoch_), image);
  if (!status.ok()) {
    metrics.write_failures->Add(1);
    return status;
  }
  metrics.writes->Add(1);
  metrics.bytes_written->Add(image.size());
  last_write_bytes_ = image.size();
  // Keep this epoch and the previous one; prune everything older. Pruning
  // after the new epoch is durable means a crash anywhere leaves at least
  // one intact checkpoint on disk.
  if (next_epoch_ >= 2) {
    for (uint64_t e = next_epoch_ - 1; e-- > 0;) {
      if (unlink(EpochPath(e).c_str()) != 0) break;  // already pruned
    }
  }
  ++next_epoch_;
  return Status::OK();
}

StatusOr<CheckpointReader> CheckpointStore::LoadLatest() {
  const CkptMetrics& metrics = CkptMetrics::Get();
  if (next_epoch_ == 0) return Status::NotFound("no checkpoint epochs");
  for (uint64_t e = next_epoch_; e-- > 0;) {
    StatusOr<std::string> bytes = ReadFileToString(EpochPath(e));
    if (!bytes.ok()) continue;  // pruned or missing epoch
    StatusOr<CheckpointReader> reader = CheckpointReader::Parse(*std::move(bytes));
    if (reader.ok()) {
      loaded_epoch_ = e;
      metrics.restores->Add(1);
      return reader;
    }
    // Torn or corrupt epoch: reject it and fall back to the previous one.
    metrics.rejected->Add(1);
  }
  return Status::NotFound("no valid checkpoint epoch (all torn or corrupt)");
}

/// ---- Ambient checkpoint configuration ----

void InstallAmbientCheckpoint(const CheckpointConfig& config) {
  MutexLock lock(g_ambient_ckpt_mu);
  g_ambient_ckpt = config;
}

CheckpointConfig AmbientCheckpoint() {
  MutexLock lock(g_ambient_ckpt_mu);
  return g_ambient_ckpt;
}

CheckpointConfig EffectiveCheckpoint(const CheckpointConfig& local) {
  if (local.enabled()) return local;
  return AmbientCheckpoint();
}

}  // namespace isum
