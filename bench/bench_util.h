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

/// The parsed flags of one bench invocation: the observability set below
/// plus the drivers' own `--csv`, `--scale s` and bench_fig2_scalability's
/// `--compress-only`. Split out of ObsScope so the argv handling is
/// directly testable (tests/bench_util_test.cc): Parse() consumes every
/// flag it recognizes and compacts argv/argc around them, leaving the
/// arguments no driver takes in their original order.
struct BenchFlags {
  std::string bench_name = "bench";  ///< BaseName(argv[0])
  std::string trace_path;
  std::string faults_spec;
  std::string profile_path;
  std::string checkpoint_path;
  uint64_t checkpoint_every = 16;
  double time_budget_seconds = 0.0;
  /// Workload scale factor: 1.0 = fast defaults, larger approaches
  /// paper-sized inputs.
  double scale = 1.0;
  bool csv = false;
  bool compress_only = false;
  bool profile_alloc = false;
  bool allow_truncated = false;

  static BenchFlags Parse(int& argc, char** argv) {
    BenchFlags flags;
    if (argc > 0) flags.bench_name = BaseName(argv[0]);
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--trace=", 8) == 0) {
        flags.trace_path = arg + 8;
      } else if (std::strncmp(arg, "--profile=", 10) == 0) {
        flags.profile_path = arg + 10;
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
      } else if (std::strcmp(arg, "--csv") == 0) {
        flags.csv = true;
      } else if (std::strcmp(arg, "--compress-only") == 0) {
        flags.compress_only = true;
      } else if (std::strcmp(arg, "--scale") == 0 && i + 1 < argc &&
                 ParseNumber(argv[i + 1], &flags.scale)) {
        ++i;
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
    return flags;
  }

  /// True, with `*out` set, when all of `text` is a number.
  static bool ParseNumber(const char* text, double* out) {
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0') return false;
    *out = value;
    return true;
  }

  static std::string BaseName(const char* argv0) {
    std::string name(argv0);
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    return name;
  }
};

/// The flags of every bench driver. Declare one at the top of main() and
/// read the driver's own flags from it:
///
///   int main(int argc, char** argv) {
///     isum::bench::ObsScope obs_scope(argc, argv);
///     const bool csv = obs_scope.flags().csv;
///     ...
///
/// Any argument that is not a flag below exits 2, naming it. (bench_micro
/// lets google-benchmark take its --benchmark_* flags out of argv first.)
///   --csv              print tables as CSV
///   --scale <s>        workload scale factor (default 1)
///   --compress-only    bench_fig2_scalability: skip the slow 2a/2b tuning
///                      sweep
///   --trace=<path>     record the whole run as Chrome trace JSON (open in
///                      Perfetto / chrome://tracing): the decision events
///                      of obs/journal.h are written as they happen, a
///                      `metrics` counter event of the whole registry once
///                      per second and at exit (obs/exporter.h), the spans
///                      at exit. `tracecat <path>` renders the spans and
///                      the last metrics, `tracecat explain <path>` the
///                      decisions, `tracecat watch <path>` follows a
///                      running run
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
///   --profile=<path>   run the sampling CPU profiler (obs/profiler.h, at
///                      100 Hz of CPU time) for the whole run; written as
///                      an isum-profile-v1 record plus a flamegraph.pl-ready
///                      <path>.collapsed file. Enables the tracer (in
///                      memory only, without --trace=) so samples attribute
///                      to phases. Read with `tracecat profile <path>`
///   --profile-alloc=<0|1> also account operator new/delete per phase
///                      (with --profile; needs a -DISUM_OBS_PROFILING=ON
///                      build, otherwise ignored with a warning)
///
/// Files other than the --trace= decision events and metrics ticks are
/// written from the destructor, after the driver's work joined.
/// Perf records are not written here: benchmark/isum_bench produces them
/// (benchmark/README.md).
class ObsScope {
 public:
  ObsScope(int& argc, char** argv) {
    obs::Tracer::Global().SetCurrentThreadName("main");
    flags_ = BenchFlags::Parse(argc, argv);
    if (argc > 1) {
      std::fprintf(stderr, "%s: unknown argument: %s\n",
                   flags_.bench_name.c_str(), argv[1]);
      std::exit(2);
    }
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
    if (!flags_.trace_path.empty()) {
      if (!obs::Tracer::Global().Open(flags_.trace_path, flags_.bench_name)) {
        std::fprintf(stderr, "cannot open --trace=%s\n",
                     flags_.trace_path.c_str());
        std::exit(2);
      }
      exporter_ = std::make_unique<obs::MetricsExporter>(
          &obs::MetricsRegistry::Global());
      const Status status = exporter_->Start();
      if (!status.ok()) {
        std::fprintf(stderr, "metrics exporter: %s\n",
                     status.ToString().c_str());
        std::exit(2);
      }
    } else if (!flags_.profile_path.empty()) {
      // The profiler attributes samples through the tracer's span stack.
      obs::Tracer::Global().Enable();
    }
    if (!flags_.profile_path.empty()) {
      if (flags_.profile_alloc && !obs::Profiler::alloc_hooks_compiled()) {
        std::fprintf(stderr,
                     "--profile-alloc=1 ignored: build with "
                     "-DISUM_OBS_PROFILING=ON to compile the alloc hooks\n");
      }
      obs::ProfilerOptions profiler_options;
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
    // allocation gauges into the registry, so the final metrics tick sees
    // them.
    obs::ProfileDump profile;
    if (profiling_) profile = obs::Profiler::Global().Stop();
    if (!flags_.trace_path.empty()) {
      // Joins the worker and writes the final tick, before the file closes.
      exporter_->Stop();
      const obs::TraceFileStats stats = obs::Tracer::Global().Close();
      if (stats.ok) {
        std::fprintf(stderr,
                     "wrote %llu spans, %llu decision events and %llu "
                     "metrics ticks to %s\n",
                     static_cast<unsigned long long>(stats.spans),
                     static_cast<unsigned long long>(stats.instants),
                     static_cast<unsigned long long>(
                         exporter_->ticks_written()),
                     flags_.trace_path.c_str());
      } else {
        std::fprintf(stderr, "obs export failed: write error on %s\n",
                     flags_.trace_path.c_str());
      }
    } else if (!flags_.profile_path.empty()) {
      obs::Tracer::Global().Disable();
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

  const BenchFlags& flags() const { return flags_; }

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

  BenchFlags flags_;
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
