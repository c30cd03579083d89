#ifndef ISUM_OBS_EXPORT_H_
#define ISUM_OBS_EXPORT_H_

#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace isum::obs {

/// Serialization of traces and metric snapshots. Two formats:
///
///  - Chrome trace JSON (`trace.json`): loads directly in Perfetto
///    (https://ui.perfetto.dev) or chrome://tracing. One complete event
///    ("ph":"X") per span, preceded by thread_name metadata events, in a
///    JSON array written one event per line for grep.
///
///  - Metrics JSONL: one JSON object per line
///    ({"type":"counter"|"gauge"|"histogram",...}). It is the
///    MetricsExporter's snapshot file (obs/exporter.h).
///
/// tools/tracecat reads both back through common/jsonl.h.
///
/// Timestamps/durations are microseconds with nanosecond precision
/// (Chrome's native unit).

/// Renders `dump` as Chrome trace JSON.
std::string ChromeTraceJson(const TraceDump& dump);

/// Renders `snapshot` as metrics JSONL.
std::string MetricsJsonl(const MetricsSnapshot& snapshot);

/// Run metadata stamped into an isum-profile-v1 record, mirroring the
/// isum-bench-v1 header fields so a profile and a bench record correlate.
struct ProfileMeta {
  std::string label;
  std::string bench;
  std::string git_rev;
  double wall_seconds = 0.0;
};

/// Renders `dump` in the collapsed-stack format flamegraph.pl consumes:
/// one `phase;outer;...;leaf count` line per unique stack, so the phase is
/// the flame root and frames fan out under it. Samples outside any span
/// root at "(unattributed)"; semicolons inside frame names become ':'.
/// ObsScope writes this next to --profile= as `<path>.collapsed`.
std::string CollapsedStacks(const ProfileDump& dump);

/// Renders `dump` as a structured isum-profile-v1 record: one JSON object
/// with per-phase sample totals, top frames by self/total samples, and the
/// allocation hot-list. Read back by `tracecat profile`; schema documented
/// in docs/OBSERVABILITY.md.
std::string ProfileJson(const ProfileDump& dump, const ProfileMeta& meta);

/// Writes `content` to `path` (helper shared by the bench drivers).
Status WriteFile(const std::string& path, const std::string& content);

}  // namespace isum::obs

#endif  // ISUM_OBS_EXPORT_H_
