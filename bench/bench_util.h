#ifndef ISUM_BENCH_BENCH_UTIL_H_
#define ISUM_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harnesses (one binary per paper
// table/figure). Not part of the library API.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <cstdlib>

#include "baselines/gsum.h"
#include "baselines/kmedoid.h"
#include "baselines/simple.h"
#include "common/checkpoint.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "eval/pipeline.h"
#include "eval/reporting.h"
#include "obs/export.h"
#include "obs/exporter.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "workload/workload_factory.h"

// Short git revision baked in by bench/CMakeLists.txt so --profile= records
// can be attributed to the code that produced them.
#ifndef ISUM_GIT_REV
#define ISUM_GIT_REV "unknown"
#endif

namespace isum::bench {

/// The parsed observability flags of one bench invocation. Split out of
/// ObsScope so the argv handling is directly testable
/// (tests/bench_util_test.cc): Parse() consumes every flag it recognizes
/// and compacts argv/argc around them, leaving unknown arguments for the
/// driver's own parser in their original order.
struct ObsFlags {
  std::string bench_name = "bench";  ///< BaseName(argv[0])
  std::string trace_path;
  std::string metrics_path;
  std::string journal_path;
  std::string faults_spec;
  std::string profile_path;
  std::string checkpoint_path;
  uint64_t checkpoint_every = 16;
  uint64_t trace_every = 1;
  double time_budget_seconds = 0.0;
  int profile_hz = 100;
  bool profile_alloc = false;
  bool allow_truncated = false;

  static ObsFlags Parse(int& argc, char** argv) {
    ObsFlags flags;
    if (argc > 0) flags.bench_name = BaseName(argv[0]);
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--trace=", 8) == 0) {
        flags.trace_path = arg + 8;
      } else if (std::strncmp(arg, "--trace-every=", 14) == 0) {
        flags.trace_every = std::strtoull(arg + 14, nullptr, 10);
      } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
        flags.metrics_path = arg + 10;
      } else if (std::strncmp(arg, "--journal=", 10) == 0) {
        flags.journal_path = arg + 10;
      } else if (std::strncmp(arg, "--profile=", 10) == 0) {
        flags.profile_path = arg + 10;
      } else if (std::strncmp(arg, "--profile-hz=", 13) == 0) {
        flags.profile_hz = static_cast<int>(std::strtol(arg + 13, nullptr, 10));
      } else if (std::strncmp(arg, "--profile-alloc=", 16) == 0) {
        flags.profile_alloc = std::strtol(arg + 16, nullptr, 10) != 0;
      } else if (std::strncmp(arg, "--faults=", 9) == 0) {
        flags.faults_spec = arg + 9;
      } else if (std::strncmp(arg, "--time-budget=", 14) == 0) {
        flags.time_budget_seconds = std::strtod(arg + 14, nullptr);
      } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
        flags.checkpoint_path = arg + 13;
      } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
        flags.checkpoint_every = std::strtoull(arg + 19, nullptr, 10);
      } else if (std::strcmp(arg, "--allow-truncated") == 0) {
        flags.allow_truncated = true;
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
    return flags;
  }

  static std::string BaseName(const char* argv0) {
    std::string name(argv0);
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    return name;
  }
};

/// Uniform observability flags for every bench driver. Declare one at the
/// top of main():
///
///   int main(int argc, char** argv) {
///     isum::bench::ObsScope obs_scope(argc, argv);
///     ...
///
/// Recognized flags (consumed from argv so downstream parsers — including
/// google-benchmark's — never see them):
///   --trace=<path>     record spans for the whole run; written as Chrome
///                      trace JSON (open in Perfetto / chrome://tracing)
///   --trace-every=<N>  sample: record every Nth top-level span tree per
///                      thread (with --trace; 1 = all, the default)
///   --metrics=<path>   run the MetricsExporter (obs/exporter.h) on <path>:
///                      a metrics-JSONL snapshot of the registry, rewritten
///                      atomically once per second while the run executes
///                      and once more at exit. Read with `tracecat watch
///                      <path>` live, or `tracecat <trace> --metrics=<path>`
///                      afterwards
///   --faults=<spec>    arm deterministic fault injection for the run
///                      (spec grammar in common/fault.h; overrides the
///                      ISUM_FAULTS environment variable)
///   --time-budget=<s>  install an ambient whole-run time budget of `s`
///                      seconds (common/deadline.h); stages stop cleanly
///                      with best-so-far results once it expires
///   --checkpoint=<path> install an ambient checkpoint config
///                      (common/checkpoint.h): compression/enumeration
///                      phases write crash-atomic `isum-ckpt-v1` epochs
///                      under <path> and resume from the newest valid one
///                      at startup (docs/ROBUSTNESS.md). Inspect with
///                      `tracecat ckpt`
///   --checkpoint-every=<N> write an epoch every N completed rounds (with
///                      --checkpoint; default 16)
///   --allow-truncated  exit 0 even when a stage stopped early (deadline,
///                      cancellation, faults). Without it any abnormal stop
///                      makes the driver exit 3 so CI can tell a truncated
///                      sweep from a complete one (main returns
///                      obs.ExitCode())
///   --journal=<path>   open the decision-provenance journal for the run
///                      (isum-events-v1 JSONL, src/obs/journal.h); closed
///                      with `journal_end` at exit. `tracecat explain`
///                      reconstructs the run from it
///   --profile=<path>   run the sampling CPU profiler (obs/profiler.h) for
///                      the whole run; written as an isum-profile-v1 record
///                      plus a flamegraph.pl-ready <path>.collapsed file.
///                      Enables the tracer so samples attribute to phases.
///                      Read with `tracecat profile <path>`
///   --profile-hz=<n>   SIGPROF sampling frequency in Hz of CPU time
///                      (with --profile; default 100)
///   --profile-alloc=<0|1> also account operator new/delete per phase
///                      (with --profile; needs a -DISUM_OBS_PROFILING=ON
///                      build, otherwise ignored with a warning)
///
/// Files are written from the destructor, after the driver's work joined.
/// Perf records are not written here: benchmark/isum_bench produces them
/// (benchmark/README.md).
class ObsScope {
 public:
  ObsScope(int& argc, char** argv) {
    obs::Tracer::Global().SetCurrentThreadName("main");
    flags_ = ObsFlags::Parse(argc, argv);
    if (!flags_.faults_spec.empty()) {
      const Status status =
          FaultInjector::Global().Configure(flags_.faults_spec);
      if (!status.ok()) {
        std::fprintf(stderr, "bad --faults spec: %s\n",
                     status.ToString().c_str());
        std::exit(2);
      }
    } else {
      // ISUM_FAULTS=<spec> arms injection for drivers run under a harness.
      const Status status = FaultInjector::Global().ConfigureFromEnvironment();
      if (!status.ok()) {
        std::fprintf(stderr, "bad ISUM_FAULTS spec: %s\n",
                     status.ToString().c_str());
        std::exit(2);
      }
    }
    if (flags_.time_budget_seconds > 0.0) {
      InstallAmbientBudget(TimeBudget::After(flags_.time_budget_seconds));
    }
    if (!flags_.checkpoint_path.empty()) {
      CheckpointConfig ckpt;
      ckpt.path = flags_.checkpoint_path;
      ckpt.every_rounds =
          flags_.checkpoint_every == 0 ? 1 : flags_.checkpoint_every;
      InstallAmbientCheckpoint(ckpt);
    }
    obs::Tracer::Global().SetSampleEvery(flags_.trace_every);
    // The profiler attributes samples through the tracer's span stack, so
    // --profile= enables tracing too.
    if (!flags_.trace_path.empty() || !flags_.profile_path.empty()) {
      obs::Tracer::Global().Enable();
    }
    if (!flags_.journal_path.empty()) {
      if (!obs::Journal::Global().Open(flags_.journal_path,
                                       flags_.bench_name)) {
        std::fprintf(stderr, "cannot open --journal=%s\n",
                     flags_.journal_path.c_str());
        std::exit(2);
      }
    }
    if (!flags_.metrics_path.empty()) {
      obs::MetricsExporterOptions exporter_options;
      exporter_options.snapshot_path = flags_.metrics_path;
      exporter_ = std::make_unique<obs::MetricsExporter>(
          &obs::MetricsRegistry::Global(), std::move(exporter_options));
      const Status status = exporter_->Start();
      if (!status.ok()) {
        std::fprintf(stderr, "metrics exporter: %s\n",
                     status.ToString().c_str());
        std::exit(2);
      }
    }
    if (!flags_.profile_path.empty()) {
      if (flags_.profile_alloc && !obs::Profiler::alloc_hooks_compiled()) {
        std::fprintf(stderr,
                     "--profile-alloc=1 ignored: build with "
                     "-DISUM_OBS_PROFILING=ON to compile the alloc hooks\n");
      }
      obs::ProfilerOptions profiler_options;
      profiler_options.sample_hz = flags_.profile_hz;
      profiler_options.track_allocations = flags_.profile_alloc;
      if (obs::Profiler::Global().Start(profiler_options)) {
        profiling_ = true;
      } else {
        // Keep the bench usable: the run still executes, just unprofiled.
        std::fprintf(stderr, "--profile=%s: profiler failed to start "
                             "(unsupported platform?); continuing without\n",
                     flags_.profile_path.c_str());
      }
    }
    start_ = std::chrono::steady_clock::now();
  }

  ~ObsScope() {
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    // Stop the profiler before anything else: Stop() publishes the
    // allocation gauges into the registry, so the exporter's final
    // --metrics= snapshot sees them.
    obs::ProfileDump profile;
    if (profiling_) profile = obs::Profiler::Global().Stop();
    // Shut down the exporter next (joins its worker and writes the final
    // snapshot), then close the journal so `journal_end` is the last event.
    if (exporter_ != nullptr) {
      exporter_->Stop();
      std::fprintf(stderr, "wrote %llu metrics snapshot(s) to %s\n",
                   static_cast<unsigned long long>(
                       exporter_->snapshots_written()),
                   flags_.metrics_path.c_str());
      exporter_.reset();
    }
    if (!flags_.journal_path.empty()) {
      const uint64_t events = obs::Journal::Global().events_written();
      obs::Journal::Global().Close();
      std::fprintf(stderr, "wrote %llu journal events to %s\n",
                   static_cast<unsigned long long>(events + 1),
                   flags_.journal_path.c_str());
    }
    obs::TraceDump dump;
    if (!flags_.trace_path.empty() || !flags_.profile_path.empty()) {
      obs::Tracer::Global().Disable();
      dump = obs::Tracer::Global().Drain();
    }
    if (!flags_.trace_path.empty()) {
      Report(obs::WriteFile(flags_.trace_path, obs::ChromeTraceJson(dump)),
             flags_.trace_path, dump.spans.size(), "spans");
    }
    if (profiling_) {
      obs::ProfileMeta meta;
      meta.label = flags_.bench_name;
      meta.bench = flags_.bench_name;
      meta.git_rev = ISUM_GIT_REV;
      meta.wall_seconds = wall_seconds;
      Report(obs::WriteFile(flags_.profile_path,
                            obs::ProfileJson(profile, meta)),
             flags_.profile_path, profile.samples, "profile samples");
      const std::string collapsed_path = flags_.profile_path + ".collapsed";
      Report(obs::WriteFile(collapsed_path, obs::CollapsedStacks(profile)),
             collapsed_path, profile.stacks.size(), "collapsed stacks");
    }
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  /// Driver exit status honoring the abnormal-stop ledger
  /// (common/deadline.h): 0 when every stage ran to completion (or
  /// --allow-truncated was passed), 3 when any stage stopped early. Bench
  /// mains `return obs_scope.ExitCode();` so CI distinguishes truncated
  /// sweeps from complete ones.
  int ExitCode() const {
    const uint64_t abnormal = AbnormalStopCount();
    if (abnormal == 0 || flags_.allow_truncated) return 0;
    std::fprintf(stderr,
                 "%llu stage(s) stopped before completion; exiting 3 "
                 "(pass --allow-truncated to accept partial results)\n",
                 static_cast<unsigned long long>(abnormal));
    return 3;
  }

 private:
  static void Report(const Status& status, const std::string& path,
                     size_t items, const char* what) {
    if (status.ok()) {
      std::fprintf(stderr, "wrote %zu %s to %s\n", items, what, path.c_str());
    } else {
      std::fprintf(stderr, "obs export failed: %s\n",
                   status.ToString().c_str());
    }
  }

  ObsFlags flags_;
  bool profiling_ = false;
  std::unique_ptr<obs::MetricsExporter> exporter_;
  std::chrono::steady_clock::time_point start_;
};

/// The six algorithms of Figure 9/10/12/15: Uniform, Cost, Stratified,
/// GSUM, ISUM, ISUM-S.
inline std::vector<std::unique_ptr<baselines::Compressor>> StandardCompressors(
    uint64_t seed = 1) {
  std::vector<std::unique_ptr<baselines::Compressor>> out;
  out.push_back(std::make_unique<baselines::UniformSamplingCompressor>(seed));
  out.push_back(std::make_unique<baselines::TopCostCompressor>());
  out.push_back(std::make_unique<baselines::StratifiedCompressor>(seed));
  out.push_back(std::make_unique<baselines::GsumCompressor>());
  out.push_back(std::make_unique<eval::IsumCompressor>());
  out.push_back(std::make_unique<eval::IsumCompressor>(
      core::IsumOptions::StatsVariant(), "ISUM-S"));
  return out;
}

/// Wall-clock helper.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-query "tune this query alone, then measure" sweep shared by the
/// correlation experiments (Figures 5–8, Table 3). For each query q_i:
/// tune {q_i}, record the improvement of q_i itself (reduction) and of the
/// whole workload (improvement %).
struct PerQueryTuning {
  std::vector<double> reduction;               ///< C(q) - C_I(q)
  std::vector<double> workload_improvement;    ///< % on the full workload
};

inline PerQueryTuning TuneEachQueryAlone(const workload::GeneratedWorkload& env,
                                         const eval::TunerFn& tuner) {
  PerQueryTuning out;
  const workload::Workload& w = *env.workload;
  for (size_t i = 0; i < w.size(); ++i) {
    std::vector<advisor::WeightedQuery> one = {{&w.query(i).bound, 1.0}};
    const advisor::TuningResult result = tuner(one);
    out.reduction.push_back(result.initial_cost - result.final_cost);
    out.workload_improvement.push_back(
        eval::WorkloadImprovementPercent(w, result.configuration));
  }
  return out;
}

/// Sweeps every compressor over the compressed-size axis `ks`, tuning each
/// compressed workload with `tuner` and measuring improvement (%) on the full
/// workload. Returns a table with one row per k and one column per algorithm.
inline eval::Table CompareCompressors(
    const workload::GeneratedWorkload& env,
    const std::vector<std::unique_ptr<baselines::Compressor>>& compressors,
    const std::vector<size_t>& ks, const eval::TunerFn& tuner,
    const char* axis_name = "k") {
  std::vector<std::string> headers = {axis_name};
  for (const auto& c : compressors) headers.push_back(c->name());
  eval::Table table(std::move(headers));
  for (size_t k : ks) {
    if (k > env.workload->size()) break;
    std::vector<double> row;
    for (const auto& c : compressors) {
      const workload::CompressedWorkload compressed =
          c->Compress(*env.workload, k);
      const eval::EvaluationResult r =
          eval::RunPipeline(*env.workload, compressed, tuner, c->name());
      row.push_back(r.improvement_percent);
    }
    table.AddRow(StrFormat("%zu", k), row);
  }
  return table;
}

}  // namespace isum::bench

#endif  // ISUM_BENCH_BENCH_UTIL_H_
