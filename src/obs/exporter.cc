#include "obs/exporter.h"

#include "common/checkpoint.h"
#include "common/deadline.h"
#include "obs/export.h"
#include "obs/process_stats.h"

namespace isum::obs {

MetricsExporter::MetricsExporter(MetricsRegistry* registry,
                                 MetricsExporterOptions options)
    : registry_(registry), options_(std::move(options)) {}

MetricsExporter::~MetricsExporter() { Stop(); }

Status MetricsExporter::Start() {
  {
    MutexLock lock(mu_);
    if (started_) return Status::InvalidArgument("exporter already started");
    stop_ = false;
    started_ = true;
  }
  worker_ = std::thread([this] { Run(); });
  return Status::OK();
}

void MetricsExporter::Stop() {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
    stop_ = true;
  }
  stop_cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
  // Final snapshot after the worker quiesced, through Tick() so the budget
  // gauge is fresh in the file even when the worker never got a tick in
  // (Stop() can beat the worker's first iteration).
  (void)Tick();
}

void MetricsExporter::WriteSnapshotFile() {
  if (options_.snapshot_path.empty()) return;
  // tmp + rename: a `tracecat watch` poll never sees a half-written file.
  const Status status = WriteFileAtomic(options_.snapshot_path,
                                        MetricsJsonl(registry_->Snapshot()));
  if (status.ok()) {
    snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool MetricsExporter::Tick() {
  const TimeBudget budget = AmbientBudget();
  double remaining = -1.0;
  if (!budget.deadline().unlimited()) {
    remaining =
        static_cast<double>(budget.deadline().remaining_nanos()) * 1e-9;
  }
  registry_->GetGauge("budget.remaining_seconds")->Set(remaining);
  // Process-level health next to the registry metrics, so the snapshot
  // answers "is this run leaking / spinning / fanning out" without a second
  // tool (obs/process_stats.h; published as process.*).
  registry_->GetGauge("process.peak_rss_bytes")
      ->Set(static_cast<double>(ProcessPeakRssBytes()));
  registry_->GetGauge("process.cpu_seconds_total")->Set(ProcessCpuSeconds());
  registry_->GetGauge("process.threads")
      ->Set(static_cast<double>(ProcessThreadCount()));
  WriteSnapshotFile();
  // Budget-aware shutdown: once the run's ambient budget is gone, the last
  // snapshot above is final and the worker goes away with the run.
  return !(budget.limited() && budget.Expired());
}

void MetricsExporter::Run() {
  // Timed waits on the stop flag, one Tick per period. Tick() does file
  // I/O, so it runs outside the critical section.
  for (;;) {
    {
      MutexLock lock(mu_);
      if (stop_) return;
    }
    if (!Tick()) return;
    MutexLock lock(mu_);
    if (stop_) return;
    stop_cv_.WaitForNanos(mu_, options_.period_nanos);
  }
}

}  // namespace isum::obs
