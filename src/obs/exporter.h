#ifndef ISUM_OBS_EXPORTER_H_
#define ISUM_OBS_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace isum::obs {

/// Live telemetry: a background thread that writes the MetricsRegistry
/// into the open trace file once per second, as one `metrics` counter event
/// (Tracer::WriteMetrics), so Perfetto shows every counter as a track on
/// the spans' clock and `tracecat watch <trace>` follows a running run.
/// Each tick is one flushed line: a killed run keeps its last one.
///
/// Lifecycle: construct, Start(), Stop() (the destructor stops too). The
/// worker owns all I/O; no library hot path ever blocks on the exporter —
/// registry snapshots are lock-free reads of the sharded instruments.
/// Without an open trace file the ticks still refresh the gauges below but
/// write nothing.
///
/// Every tick also publishes process health (process.peak_rss_bytes,
/// process.cpu_seconds_total, process.threads; obs/process_stats.h) and the
/// ambient budget's remaining time as "budget.remaining_seconds" (-1 when
/// unlimited). Once that budget expires the worker writes one last tick and
/// exits: a deadline-killed run still leaves its last state on disk.
class MetricsExporter {
 public:
  /// Time between ticks.
  static constexpr uint64_t kPeriodNanos = 1'000'000'000;  // 1s

  /// `registry` must outlive the exporter (pass MetricsRegistry::Global()).
  explicit MetricsExporter(MetricsRegistry* registry) : registry_(registry) {}
  ~MetricsExporter();
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Launches the worker thread; its first tick is immediate.
  Status Start();

  /// Stops the worker: wakes it, joins, writes the final tick. Idempotent.
  void Stop();

  /// Ticks written to the trace file so far (includes the final one).
  uint64_t ticks_written() const {
    return ticks_written_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  /// One tick: gauge refresh + one metrics event. Returns false once the
  /// ambient budget has expired (the worker exits).
  bool Tick();

  MetricsRegistry* const registry_;
  std::thread worker_;
  std::atomic<uint64_t> ticks_written_{0};
  Mutex mu_;
  bool stop_ ISUM_GUARDED_BY(mu_) = false;
  bool started_ ISUM_GUARDED_BY(mu_) = false;
  CondVar stop_cv_;
};

}  // namespace isum::obs

#endif  // ISUM_OBS_EXPORTER_H_
