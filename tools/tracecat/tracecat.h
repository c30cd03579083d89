#ifndef ISUM_TOOLS_TRACECAT_TRACECAT_H_
#define ISUM_TOOLS_TRACECAT_TRACECAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/jsonl.h"
#include "common/status.h"
#include "obs/profiler.h"

namespace isum::tracecat {

/// tracecat: pretty-printer for the trace files the bench drivers emit
/// (--trace=, src/obs/trace.h: spans, decision events, metrics ticks and
/// the sampling profile), and for bench records and checkpoints. Every
/// reader walks a value parsed by common/jsonl.h, so only the schema
/// matters, not the line layout the emitters happen to use — except that a
/// trace file cut short by a killed run is read line by line (ParseJournal,
/// LastMetrics, ParseProfile).

/// One parsed Chrome-trace event (complete spans and thread_name metadata).
struct TraceEvent {
  std::string phase;        ///< "X" (span) or "M" (metadata)
  std::string name;         ///< span name, e.g. "whatif/optimize"
  std::string thread_name;  ///< metadata events: args.name
  uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// Parses a Chrome trace written by obs::ChromeTraceJson or
/// obs::Tracer::Close(). Instant events and process_name metadata (the
/// decision events, read by ParseJournal), counter events (the metrics
/// ticks, read by LastMetrics) and the profile event (ParseProfile) are
/// skipped.
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

/// Renders the span report: per-phase table and top-k slowest spans.
std::string Report(const std::vector<TraceEvent>& events, size_t top_k);

/// ---- metrics ticks (counter events of a --trace= file,
/// src/obs/exporter.h) ----

/// One `metrics` counter event: every counter and gauge of the registry by
/// name, each histogram as <name>.count, .sum, .p50, .p95 and .p99.
struct MetricsTick {
  double t_us = 0.0;  ///< the event's ts (the tracer clock)
  JsonValue values;   ///< the event's args, name -> number

  /// The value named `name`, or `fallback` when the tick has none.
  double Value(std::string_view name, double fallback = 0.0) const;
};

/// The last complete metrics tick of a trace file, closed or not: a file
/// without its closing ']' is read line by line as ParseJournal reads it,
/// so a torn last line falls back to the tick before it. NotFound when the
/// file holds no tick; an error on malformed input.
StatusOr<MetricsTick> LastMetrics(const std::string& content);

/// Renders a tick, for `tracecat <trace>` (after the span tables) and
/// `tracecat watch`: budget left, compression and tuning progress, what-if
/// calls and hit rate with optimize latency, robustness counters (only when
/// one is non-zero), per-site injected fault latency (the fault.latency.*
/// histograms) and checkpoint activity.
std::string MetricsReport(const MetricsTick& tick);

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

/// ---- sampling profiles (the `profile` event of a --trace= file,
/// src/obs/profiler.h) ----

/// Per-phase sample totals of one profile.
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

/// The profile of one trace file: the `profile` event's args as the
/// profiler produced them (obs::Tracer::WriteProfile), and the tables
/// ParseProfile derives from its raw stacks.
struct ProfileRecord {
  std::string label = "?";    ///< the trace's process_name args.name
  double wall_seconds = 0.0;  ///< the event's ts: when the profiler stopped
  obs::ProfileDump dump;
  double attributed_percent = 0.0;
  std::vector<ProfilePhaseStat> phases;  ///< descending samples
  /// Descending self samples, cut to the top 64.
  std::vector<ProfileFrameStat> frames;
};

/// Reads the `profile` event of a trace file, closed or not (a file without
/// its closing ']' is read line by line, as ParseJournal reads it), and
/// derives the phase and frame tables. NotFound when the file has no
/// profile event; an error on malformed input.
StatusOr<ProfileRecord> ParseProfile(const std::string& content);

/// Renders the profile report: header (samples, rate, attribution), the
/// per-phase attribution table and the top-k frames by self samples.
std::string ProfileReport(const ProfileRecord& record, size_t top_k);

/// The stacks in the collapsed-stack format flamegraph.pl consumes, for
/// `tracecat profile --collapsed`: one `phase;outer;...;leaf count` line
/// per recorded stack, so the phase is the flame root and frames fan out
/// under it. Samples outside any span root at "(unattributed)"; semicolons
/// inside names become ':' and newlines ' '.
std::string CollapsedStacks(const ProfileRecord& record);

/// Validation for `tracecat profile --check`: a positive sample rate, stack
/// counts that sum to `samples` and, over the stacks with a phase, to
/// `attributed`, and at least `min_attributed_percent` of samples
/// attributed to a named phase. Returns the number of samples validated.
StatusOr<size_t> CheckProfile(const ProfileRecord& record,
                              double min_attributed_percent);

/// Per-phase and per-frame sample-share diff between two profiles (shares,
/// not raw counts, so runs of different lengths compare).
std::string ProfileDiff(const ProfileRecord& from, const ProfileRecord& to,
                        size_t top_k);

/// ---- decision events (instant events of a --trace= file,
/// src/obs/journal.h) ----

/// One decision event. Its name and envelope are lifted out; the decision
/// fields stay in `args` and are read on demand via Number()/String()/Has().
struct JournalEvent {
  std::string event;  ///< the instant's name, e.g. "select", "compress_end"
  uint64_t seq = 0;   ///< args.seq
  double t_us = 0.0;  ///< the instant's ts
  JsonValue args;     ///< the instant's whole args object

  StatusOr<double> Number(const std::string& key) const;
  StatusOr<std::string> String(const std::string& key) const;
  bool Has(const std::string& key) const;
};

/// The decision events of one trace file, in file order.
struct Journal {
  std::string label = "?";  ///< the leading process_name event's args.name
  std::string schema;       ///< its args.schema ("" when absent)
  std::vector<JournalEvent> events;
  bool closed = false;    ///< the array's closing ']' is present
  std::string torn_tail;  ///< why the cut-off last line was dropped, or ""
};

/// Reads the decision events of a trace file, skipping spans and thread
/// names. The file of a run that never reached Tracer::Close() still reads:
/// every complete event is kept, and `closed` / `torn_tail` record the
/// missing ']' and a last line cut mid-event. Any other malformed line is
/// an error. Event-specific validation is CheckJournal's job.
StatusOr<Journal> ParseJournal(const std::string& content);

/// Strict validation for `tracecat explain --check`: a closed file whose
/// first event is process_name with the obs::kDecisionSchema tag, known
/// event types only, required per-event fields present, dense seq
/// numbering, and every compress_end's selection_hash equal to the hash
/// recomputed from its block's select events (seeded by ckpt_restore for
/// resumed blocks). Returns the number of events validated.
StatusOr<size_t> CheckJournal(const Journal& journal);

/// Reconstructs the run: per compression block the greedy trajectory
/// (selection order, recomputed-vs-recorded hash, top-k contested rounds by
/// smallest winning margin, feature resets), enumeration rounds, the
/// estimated-vs-realized benefit attribution table, the fault/retry
/// timeline, checkpoints, and the budget timeline. The header says when
/// the file was not closed or lost a torn last line. Errors only on events
/// so malformed the reconstruction cannot proceed (run CheckJournal for
/// strictness).
StatusOr<std::string> ExplainJournal(const Journal& journal, size_t top_k);

/// ---- checkpoint files (isum-ckpt-v1, src/common/checkpoint.h) ----

/// Human summary of one checkpoint file for `tracecat ckpt inspect`:
/// container header, per-section sizes, and the decoded snapshot metadata
/// when the file name carries the compression (`.compress.`) or enumeration
/// (`.enum.`) lineage; any other file is listed as a container only.
/// Decodes with the resuming run's own decoders
/// (core::DecodeSelectionSnapshot, advisor::DecodeEnumSnapshot), so
/// `tracecat ckpt verify` (inspect minus the printing) rejects exactly the
/// epochs resume rejects on their own bytes.
StatusOr<std::string> InspectCheckpoint(const std::string& path);

}  // namespace isum::tracecat

#endif  // ISUM_TOOLS_TRACECAT_TRACECAT_H_
