#ifndef ISUM_OBS_PROCESS_STATS_H_
#define ISUM_OBS_PROCESS_STATS_H_

#include <cstdint>

namespace isum::obs {

/// Process-level resource readings shared by benchmark/isum_bench (bench
/// records), the MetricsExporter (process.* gauges in its snapshot file),
/// and the profiler docs' memory workflow. Hoisted here so the
/// ru_maxrss unit quirk — KiB on Linux, bytes on macOS — lives in exactly
/// one place. All readers are cheap enough for once-per-run-phase or
/// once-per-exporter-tick use; none allocate beyond a small stack buffer.

/// Peak resident set size in bytes via getrusage (0 where unsupported).
uint64_t ProcessPeakRssBytes();

/// Current resident set size in bytes from /proc/self/status VmRSS. Where
/// procfs is unavailable (macOS), falls back to the peak — monotone but
/// still a valid upper bound — and returns 0 on other platforms.
uint64_t ProcessCurrentRssBytes();

/// User + system CPU seconds consumed so far via getrusage (0.0 where
/// unsupported).
double ProcessCpuSeconds();

/// Live thread count from /proc/self/status Threads: (0 where
/// unavailable).
uint64_t ProcessThreadCount();

}  // namespace isum::obs

#endif  // ISUM_OBS_PROCESS_STATS_H_
