#ifndef ISUM_OBS_TRACE_H_
#define ISUM_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace isum::obs {

/// Scoped-span tracer for the compress -> tune -> evaluate pipeline, and the
/// file the run's decision events go to.
///
/// Usage: `ISUM_TRACE_SPAN("compress/greedy-pick");` opens a span that
/// closes when the enclosing scope exits. Spans record a *static* name
/// string, the recording thread, nesting depth, and start/duration in
/// nanoseconds relative to the session start. The span taxonomy is
/// documented in docs/OBSERVABILITY.md.
///
/// Cost model: tracing is off by default. A disabled span is a single
/// relaxed atomic load. An enabled span appends to a per-thread buffer
/// guarded by that thread's own (uncontended) mutex, so recording threads
/// never serialize on each other.
///
/// Sessions: Enable() clears prior spans and starts an in-memory session;
/// Disable() stops recording; Drain() merges and clears the per-thread
/// buffers. Drain() must not race with in-flight spans — quiesce workers
/// first (bench drivers drain after all work has joined).
///
/// File sessions: Open(path, label) starts a session that also writes a
/// Chrome trace to `path`. Instant events (InstantEvent below; the decision
/// events of obs/journal.h) and metrics counter events (WriteMetrics; the
/// ticks of obs/exporter.h) are written to the file as they happen, one
/// per line; Close() appends the drained spans and the thread names and
/// ends the JSON array. Without an open file, both are dropped. Just before
/// Close(), WriteProfile adds the run's sampling profile (obs/profiler.h)
/// as one metadata event.

/// One typed key/value argument attached to a span or an instant event
/// (Chrome-trace `args`). A span keeps the pointers, so span keys and string
/// values must be static strings; an instant event is written when it is
/// emitted, so its string values only need to outlive the call.
struct SpanArg {
  enum class Kind : uint8_t { kInt, kDouble, kString };
  const char* key = nullptr;
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  double double_value = 0.0;
  const char* string_value = nullptr;

  SpanArg() = default;
  SpanArg(const char* k, Kind kd, int64_t i, double d, const char* s)
      : key(k), kind(kd), int_value(i), double_value(d), string_value(s) {}
  SpanArg(const char* k, int64_t v)
      : SpanArg(k, Kind::kInt, v, 0.0, nullptr) {}
  /// Integral conveniences (exact-match overloads, so `Arg("k", k)` never
  /// ambiguously converts between int64 and double).
  SpanArg(const char* k, int v) : SpanArg(k, static_cast<int64_t>(v)) {}
  SpanArg(const char* k, uint64_t v) : SpanArg(k, static_cast<int64_t>(v)) {}
  SpanArg(const char* k, double v)
      : SpanArg(k, Kind::kDouble, 0, v, nullptr) {}
  SpanArg(const char* k, const char* v)
      : SpanArg(k, Kind::kString, 0, 0.0, v) {}
};

/// One closed span.
struct SpanRecord {
  /// Args beyond the capacity are dropped (spans are fixed-size records so
  /// the per-thread buffers stay allocation-free per span).
  static constexpr size_t kMaxArgs = 4;

  const char* name = nullptr;  ///< static string (never freed)
  uint32_t tid = 0;            ///< tracer-assigned dense thread id
  uint32_t depth = 0;          ///< nesting depth on the recording thread
  uint64_t start_nanos = 0;    ///< relative to session start
  uint64_t dur_nanos = 0;
  uint32_t num_args = 0;
  std::array<SpanArg, kMaxArgs> args{};
};

/// Result of Tracer::Drain(): spans sorted by (start, tid) plus the
/// thread-name table (indexed by SpanRecord::tid; "" = unnamed).
struct TraceDump {
  std::vector<SpanRecord> spans;
  std::vector<std::string> thread_names;
};

/// Renders `dump` as Chrome trace JSON: thread_name metadata events, then
/// one complete event ("ph":"X") per span, in a JSON array written one
/// event per line. Loads in Perfetto (https://ui.perfetto.dev) or
/// chrome://tracing; Tracer::Close() writes the same lines.
std::string ChromeTraceJson(const TraceDump& dump);

/// Tag carried by a trace file's process_name metadata event: the version
/// of the decision-event vocabulary (obs/journal.h) the file holds.
inline constexpr char kDecisionSchema[] = "isum-events-v2";

/// Name of the counter events ("ph":"C") Tracer::WriteMetrics writes.
inline constexpr char kMetricsEvent[] = "metrics";

/// Name of the metadata event ("ph":"M") Tracer::WriteProfile writes.
inline constexpr char kProfileEvent[] = "profile";

struct MetricsSnapshot;
struct ProfileDump;

/// What Tracer::Close() wrote.
struct TraceFileStats {
  uint64_t spans = 0;
  uint64_t instants = 0;
  bool ok = false;  ///< every write reached the file
};

class Tracer {
 public:
  /// The process-wide tracer all ISUM_TRACE_SPAN sites record into.
  static Tracer& Global();

  /// Starts a recording session: clears buffered spans, re-zeroes the
  /// session clock, enables recording.
  void Enable();
  /// Stops recording (buffered spans are kept for Drain()).
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens (truncates) `path` and starts a session as Enable() does. Writes
  /// the array's first line and a process_name metadata event carrying
  /// `label` (the run's name) and kDecisionSchema. Returns false, leaving
  /// the tracer as it was, when the file cannot be created. A file already
  /// open is closed first.
  bool Open(const std::string& path, const std::string& label);
  /// Stops recording, appends the drained spans and thread names, writes
  /// the closing `]` and closes the file. No-op when no file is open.
  TraceFileStats Close();
  /// One relaxed load: a file is open, so instant events are written. The
  /// decision emitters' fast-path guard; callers may use it to skip
  /// argument computation, never to change what the library does.
  bool writing() const { return writing_.load(std::memory_order_relaxed); }

  /// Writes one counter event ("ph":"C", kMetricsEvent) on the calling
  /// thread at the current session time and flushes it, so a killed run
  /// keeps its last tick. Its args are every counter and gauge of
  /// `snapshot` by name, and each histogram as <name>.count, .sum, .p50,
  /// .p95 and .p99; non-finite values are left out. Returns false when no
  /// file is open or a write to it has failed.
  bool WriteMetrics(const MetricsSnapshot& snapshot);

  /// Writes `dump` as one metadata event ("ph":"M", kProfileEvent) at the
  /// current session time and flushes it. Its args are sample_hz, samples,
  /// dropped and attributed, and the raw stacks (phase, frames outermost
  /// first, count), with "" as the phase of samples outside any span.
  /// Returns false when no file is open or a write to it has failed.
  bool WriteProfile(const ProfileDump& dump);

  /// Per-file filters for instant events that polls emit. ClaimPeriod is
  /// true for the first call of a file and then at most once per
  /// `period_nanos` of tracer-clock time. ClaimChange is true when `key`
  /// (identity-compared) differs from the key of its last true call in
  /// this file. Concurrent callers race on one compare-and-swap; one wins.
  bool ClaimPeriod(uint64_t period_nanos);
  bool ClaimChange(const char* key);

  /// Merges and clears every thread's buffer. Call after Disable() and
  /// after worker threads have quiesced.
  TraceDump Drain();

  /// Names the calling thread in trace exports ("main", "pool-worker-3").
  /// Sticky across sessions.
  void SetCurrentThreadName(std::string name);

  /// Test hook: replaces the clock of spans and instant events with a
  /// deterministic source (nullptr restores the steady clock). Returns
  /// nanoseconds.
  using ClockFn = uint64_t (*)();
  void SetClockForTest(ClockFn fn) {
    clock_.store(fn, std::memory_order_relaxed);
  }

  uint64_t NowNanos() const;

 private:
  friend class TraceSpan;
  friend class InstantEvent;
  struct ThreadState {
    /// tid/depth and `name` are owner-thread-private between registration
    /// and Drain; `name` is additionally only mutated under the Tracer's
    /// mu_ (SetCurrentThreadName) and read by Drain under the same lock.
    uint32_t tid = 0;
    uint32_t depth = 0;
    std::string name;
    Mutex mu;
    /// Owner appends, Drain steals — both under `mu`.
    std::vector<SpanRecord> spans ISUM_GUARDED_BY(mu);
  };

  Tracer() = default;
  ThreadState* CurrentThreadState() ISUM_EXCLUDES(mu_);
  uint64_t SessionNanos() const;
  /// Writes one instant event ("ph":"i") named `name` on the calling thread
  /// at the current session time; its args are a dense per-file `seq`
  /// followed by `args`. `flush` pushes the file to disk at once, so the
  /// event survives a crash. No-op unless writing().
  void Instant(const char* name, const SpanArg* args, size_t num_args,
               bool flush);
  /// Writes `event` as the file's next array element.
  void WriteEventLocked(const std::string& event) ISUM_REQUIRES(file_mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> writing_{false};
  std::atomic<ClockFn> clock_{nullptr};
  std::atomic<uint64_t> session_start_nanos_{0};
  std::atomic<uint64_t> last_period_nanos_{0};
  std::atomic<const char*> last_change_key_{nullptr};
  mutable Mutex mu_;
  /// Thread registry (and the per-thread names, see ThreadState).
  std::vector<std::unique_ptr<ThreadState>> threads_ ISUM_GUARDED_BY(mu_);
  Mutex file_mu_;
  std::FILE* file_ ISUM_GUARDED_BY(file_mu_) = nullptr;
  uint64_t seq_ ISUM_GUARDED_BY(file_mu_) = 0;
  bool write_failed_ ISUM_GUARDED_BY(file_mu_) = false;
};

/// RAII span. Prefer the ISUM_TRACE_SPAN macro (or ISUM_TRACE_SPAN_VAR to
/// attach args); `name` must be a static string (the record keeps the
/// pointer).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    Tracer& tracer = Tracer::Global();
    if (!tracer.enabled()) return;
    Begin(tracer, name);
  }
  ~TraceSpan() {
    if (state_ != nullptr) End();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a typed key/value argument, exported in Chrome-trace `args`
  /// and surfaced by tracecat. No-op on a disabled span, so
  /// `span.Arg("k", k)` is safe (and nearly free) on cold paths; args past
  /// SpanRecord::kMaxArgs are dropped. Keys/string values must be static.
  template <typename T>
  TraceSpan& Arg(const char* key, T value) {
    if (state_ != nullptr && num_args_ < SpanRecord::kMaxArgs) {
      args_[num_args_++] = SpanArg(key, value);
    }
    return *this;
  }

 private:
  void Begin(Tracer& tracer, const char* name);
  void End();

  const char* name_ = nullptr;
  Tracer::ThreadState* state_ = nullptr;
  uint32_t depth_ = 0;
  uint64_t start_nanos_ = 0;      ///< session-relative
  uint64_t start_raw_nanos_ = 0;  ///< clock-absolute (duration base)
  uint32_t num_args_ = 0;
  std::array<SpanArg, SpanRecord::kMaxArgs> args_{};
};

/// One instant event: attach args with Arg(); the event is written to the
/// open trace file when the object dies, which for a temporary is the end
/// of the full expression:
///
///   InstantEvent("select", /*flush=*/false).Arg("round", r).Arg("query", q);
///
/// `name` and the keys must be static strings; string values are copied
/// when the event is written. Args past kMaxArgs are dropped. Nothing is
/// written unless Tracer::writing().
class InstantEvent {
 public:
  static constexpr size_t kMaxArgs = 7;  // enum_round has 7

  InstantEvent(const char* name, bool flush) : name_(name), flush_(flush) {}
  ~InstantEvent() {
    Tracer::Global().Instant(name_, args_.data(), num_args_, flush_);
  }
  InstantEvent(const InstantEvent&) = delete;
  InstantEvent& operator=(const InstantEvent&) = delete;

  template <typename T>
  InstantEvent& Arg(const char* key, T value) {
    if (num_args_ < kMaxArgs) args_[num_args_++] = SpanArg(key, value);
    return *this;
  }

 private:
  const char* name_;
  bool flush_;
  size_t num_args_ = 0;
  std::array<SpanArg, kMaxArgs> args_{};
};

}  // namespace isum::obs

#define ISUM_OBS_CONCAT_INNER(a, b) a##b
#define ISUM_OBS_CONCAT(a, b) ISUM_OBS_CONCAT_INNER(a, b)
#define ISUM_TRACE_SPAN(name) \
  ::isum::obs::TraceSpan ISUM_OBS_CONCAT(isum_trace_span_, __LINE__) { name }
/// Named span handle so the scope can attach args:
///   ISUM_TRACE_SPAN_VAR(span, "compress/greedy-pick");
///   span.Arg("k", k).Arg("algorithm", "summary");
#define ISUM_TRACE_SPAN_VAR(var, name) \
  ::isum::obs::TraceSpan var { name }

#endif  // ISUM_OBS_TRACE_H_
