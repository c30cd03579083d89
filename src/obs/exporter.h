#ifndef ISUM_OBS_EXPORTER_H_
#define ISUM_OBS_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace isum::obs {

/// Live telemetry export: a background thread that rewrites a snapshot
/// file of the MetricsRegistry once per period, in the metrics JSONL format
/// (obs/export.h MetricsJsonl), for CI artifacts and `tracecat watch <file>`.
/// Each rewrite is atomic (WriteFileAtomic: `<path>.tmp` + rename), so a
/// reader sees either the previous snapshot or the new one, never a torn
/// file.
///
/// Lifecycle: construct, Start(), Stop() (the destructor stops too). The
/// worker owns all I/O; no library hot path ever blocks on the exporter —
/// registry snapshots are lock-free reads of the sharded instruments.
///
/// Budget awareness: every period the worker publishes the ambient budget's
/// remaining time as the "budget.remaining_seconds" gauge (-1 when
/// unlimited), and once that budget expires it writes one final snapshot
/// and exits — a deadline-killed run still leaves its last state on disk.
struct MetricsExporterOptions {
  /// When non-empty, the metrics-JSONL snapshot is rewritten here every
  /// period and once more on shutdown.
  std::string snapshot_path;
  /// Snapshot/refresh period.
  uint64_t period_nanos = 1'000'000'000;  // 1s
};

class MetricsExporter {
 public:
  /// `registry` must outlive the exporter (pass MetricsRegistry::Global()).
  explicit MetricsExporter(MetricsRegistry* registry,
                           MetricsExporterOptions options);
  ~MetricsExporter();
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Launches the worker thread.
  Status Start();

  /// Stops the worker: wakes it, joins, writes the final snapshot.
  /// Idempotent.
  void Stop();

  /// Snapshot files written so far (tests; includes the shutdown write).
  uint64_t snapshots_written() const {
    return snapshots_written_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  /// One periodic beat: budget gauge refresh + snapshot file write.
  /// Returns false once the ambient budget has expired (worker exits).
  bool Tick();
  void WriteSnapshotFile();

  MetricsRegistry* const registry_;
  const MetricsExporterOptions options_;
  std::thread worker_;
  std::atomic<uint64_t> snapshots_written_{0};
  Mutex mu_;
  bool stop_ ISUM_GUARDED_BY(mu_) = false;
  bool started_ ISUM_GUARDED_BY(mu_) = false;
  CondVar stop_cv_;
};

}  // namespace isum::obs

#endif  // ISUM_OBS_EXPORTER_H_
