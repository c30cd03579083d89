#ifndef ISUM_TOOLS_TRACECAT_TRACECAT_H_
#define ISUM_TOOLS_TRACECAT_TRACECAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/jsonl.h"
#include "common/status.h"

namespace isum::tracecat {

/// tracecat: pretty-printer for the traces and metric snapshots the bench
/// drivers emit (--trace= / --metrics=, src/obs/export.h). Every reader
/// walks a value parsed by common/jsonl.h, so only the schema matters, not
/// the line layout the emitters happen to use.

/// One parsed Chrome-trace event (complete spans and thread_name metadata).
struct TraceEvent {
  std::string phase;        ///< "X" (span) or "M" (metadata)
  std::string name;         ///< span name, e.g. "whatif/optimize"
  std::string thread_name;  ///< metadata events: args.name
  uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// Parses a Chrome trace written by obs::ChromeTraceJson.
StatusOr<std::vector<TraceEvent>> ParseChromeTrace(const std::string& content);

/// Aggregate over all spans sharing a name.
struct PhaseStat {
  std::string name;
  uint64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

/// Per-phase totals over the span events, sorted by descending total time
/// (ties by name, so output is deterministic).
std::vector<PhaseStat> AggregatePhases(const std::vector<TraceEvent>& events);

/// The `k` slowest spans, by descending duration (ties by start, name).
std::vector<TraceEvent> TopSlowest(const std::vector<TraceEvent>& events,
                                   size_t k);

/// One line of a metrics JSONL snapshot (obs::MetricsJsonl).
struct MetricLine {
  std::string type;  ///< "counter", "gauge", or "histogram"
  std::string name;
  double value = 0.0;  ///< counters/gauges
  uint64_t count = 0;  ///< histograms
  uint64_t sum = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

StatusOr<std::vector<MetricLine>> ParseMetricsJsonl(
    const std::string& content);

/// Renders the report: per-phase table, top-k slowest spans, and (when
/// metrics are present) the what-if call/hit-rate table.
std::string Report(const std::vector<TraceEvent>& events,
                   const std::vector<MetricLine>& metrics, size_t top_k);

/// One parsed isum-bench-v1 record (written by benchmark/isum_bench
/// --record=, and the frozen BENCH_scalability.json trajectory; schema
/// documented in docs/BENCHMARKING.md).
struct BenchRecord {
  std::string label;
  std::string bench;
  std::string git_rev;
  double wall_seconds = 0.0;
  uint64_t peak_rss_bytes = 0;
  std::vector<PhaseStat> phases;  ///< per-phase totals, descending total_us
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::string> run_names;
};

/// Parses isum-bench-v1 content: either a single record object, or a
/// trajectory file (a JSON array of such records, e.g.
/// BENCH_scalability.json). Errors on anything schema-invalid: wrong or
/// missing schema tag, missing required scalars, unknown top-level keys,
/// malformed JSON, an empty array.
StatusOr<std::vector<BenchRecord>> ParseBenchRecords(
    const std::string& content);

/// One line per phase (union of both records, `from`'s order first):
/// total time in `from` vs `to` with the relative change, then a wall-clock
/// summary line. This is the per-phase diff between two recorded baselines.
std::string BenchDelta(const BenchRecord& from, const BenchRecord& to);

/// Memory-regression gate for `tracecat bench --check`: compares the first
/// and last record's peak_rss_bytes and errors when the growth exceeds
/// `tolerance_percent` (both directions are reported, only growth fails —
/// a slimmer binary is not a regression). No-op with fewer than two
/// records or a zero first-record RSS (unsupported platform).
Status CheckBenchRss(const std::vector<BenchRecord>& records,
                     double tolerance_percent);

/// ---- sampling profiles (isum-profile-v1, src/obs/profiler.h) ----

/// Per-phase sample totals of one profile record.
struct ProfilePhaseStat {
  std::string name;  ///< "(unattributed)" for samples outside any span
  uint64_t samples = 0;
  double percent = 0.0;
};

/// One symbolized frame's self/total sample counts.
struct ProfileFrameStat {
  std::string name;
  uint64_t self = 0;   ///< samples with this frame as the leaf
  uint64_t total = 0;  ///< samples with this frame anywhere on the stack
};

/// Per-phase allocation totals (present when the record was taken with
/// --profile-alloc=1 on an ISUM_OBS_PROFILING build).
struct ProfileAllocStat {
  std::string name;
  uint64_t bytes = 0;
  uint64_t count = 0;
};

/// One parsed --profile= record (the isum-profile-v1 layout written by
/// obs::ProfileJson; schema documented in docs/OBSERVABILITY.md).
struct ProfileRecord {
  std::string label;
  std::string bench;
  std::string git_rev;
  int sample_hz = 0;
  double wall_seconds = 0.0;
  uint64_t samples = 0;
  uint64_t dropped = 0;
  uint64_t attributed_samples = 0;
  double attributed_percent = 0.0;
  bool alloc_enabled = false;
  uint64_t alloc_total_bytes = 0;
  uint64_t alloc_total_count = 0;
  int64_t alloc_live_bytes = 0;  ///< signed: frees of pre-arm allocations
  uint64_t alloc_peak_bytes = 0;
  std::vector<ProfilePhaseStat> phases;      ///< descending samples
  std::vector<ProfileFrameStat> frames;      ///< descending self
  std::vector<ProfileAllocStat> alloc_phases;
};

/// Parses one isum-profile-v1 record. Errors on anything schema-invalid:
/// wrong or missing schema tag, missing required scalars, unknown top-level
/// keys, malformed JSON.
StatusOr<ProfileRecord> ParseProfileJson(const std::string& content);

/// Renders the profile report: header (samples, rate, attribution), the
/// per-phase attribution table, top-k frames by self samples, and — when
/// the record carries allocation data — the allocation hot-list.
std::string ProfileReport(const ProfileRecord& record, size_t top_k);

/// Validation for `tracecat profile --check`: sane scalars (positive hz,
/// percent arithmetic consistent with the sample counts) and at least
/// `min_attributed_percent` of samples attributed to a named phase.
/// Returns the number of samples validated.
StatusOr<size_t> CheckProfile(const ProfileRecord& record,
                              double min_attributed_percent);

/// Per-phase and per-frame sample-share diff between two profile records
/// (shares, not raw counts, so records of different lengths compare).
std::string ProfileDiff(const ProfileRecord& from, const ProfileRecord& to,
                        size_t top_k);

/// ---- decision-provenance journal (isum-events-v1, src/obs/journal.h) ----

/// One parsed journal line. The envelope fields every event carries are
/// lifted out; event-specific fields stay in `object` and are read on
/// demand via Number()/String()/Has().
struct JournalEvent {
  std::string event;  ///< e.g. "select", "compress_end"
  uint64_t seq = 0;
  double t_us = 0.0;
  JsonValue object;  ///< the whole parsed line

  StatusOr<double> Number(const std::string& key) const;
  StatusOr<std::string> String(const std::string& key) const;
  bool Has(const std::string& key) const;
};

/// Parses an isum-events-v1 journal. Errors on lines without the
/// event/seq/t_us envelope; event-specific validation is CheckJournal's job.
StatusOr<std::vector<JournalEvent>> ParseJournal(const std::string& content);

/// Schema validation for `tracecat explain --check`: journal_begin first
/// (with the right schema tag), known event types only, required per-event
/// fields present, dense seq numbering, and every compress_end's
/// selection_hash equal to the hash recomputed from its block's select
/// events. Returns the number of events validated.
StatusOr<size_t> CheckJournal(const std::vector<JournalEvent>& events);

/// Reconstructs the run: per compression block the greedy trajectory
/// (selection order, recomputed-vs-recorded hash, top-k contested rounds by
/// smallest winning margin, feature resets), enumeration rounds, the
/// estimated-vs-realized benefit attribution table, the fault/retry
/// timeline, and the budget timeline. Errors only on events so malformed
/// the reconstruction cannot proceed (run CheckJournal for strictness).
StatusOr<std::string> ExplainJournal(const std::vector<JournalEvent>& events,
                                     size_t top_k);

/// ---- live telemetry (metrics snapshot, src/obs/exporter.h) ----

/// Renders one `tracecat watch` frame from a metrics snapshot (the
/// exporter's --metrics= file, parsed by ParseMetricsJsonl):
/// compression/tuning progress counters, what-if hit rate, retry/fault
/// health (including the per-site fault.latency.* histograms), checkpoint
/// activity, and the exporter's budget.remaining_seconds gauge.
std::string WatchFrame(const std::vector<MetricLine>& metrics);

/// ---- checkpoint files (isum-ckpt-v1, src/common/checkpoint.h) ----

/// Human summary of one checkpoint file for `tracecat ckpt inspect`:
/// container header, per-section sizes, and the decoded snapshot metadata
/// when the sections match the compression (.compress) or enumeration
/// (.enum) layout. Errors on unreadable or structurally invalid files —
/// the same validation a resuming run applies, so `tracecat ckpt verify`
/// (inspect minus the printing) answers "would this file restore?".
StatusOr<std::string> InspectCheckpoint(const std::string& path);

}  // namespace isum::tracecat

#endif  // ISUM_TOOLS_TRACECAT_TRACECAT_H_
