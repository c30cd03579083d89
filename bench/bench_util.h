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
#include "obs/process_stats.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "workload/workload_factory.h"

// Short git revision baked in by bench/CMakeLists.txt so recorded baselines
// can be attributed to the code that produced them.
#ifndef ISUM_GIT_REV
#define ISUM_GIT_REV "unknown"
#endif

namespace isum::bench {

/// One named measurement a bench driver records into the --bench-json=
/// file: arbitrary numeric fields plus optional string fields (hashes,
/// workload names). See docs/BENCHMARKING.md for the schema.
struct BenchRun {
  std::string name;
  std::vector<std::pair<std::string, double>> numbers;
  std::vector<std::pair<std::string, std::string>> strings;
};

/// Process-wide collector for the machine-readable perf baseline
/// (--bench-json=). Drivers call AddRun() after each measured unit of work;
/// ObsScope's destructor renders one self-contained JSON record with the
/// run list, per-phase tracer totals, metric counters, wall time, peak RSS,
/// and the git revision. Appending records of successive revisions into one
/// file yields a perf trajectory (BENCH_*.json) that tools/tracecat can
/// diff; the full workflow is in docs/BENCHMARKING.md.
class BenchJson {
 public:
  static BenchJson& Global() {
    static BenchJson* instance = new BenchJson();
    return *instance;
  }

  /// Records one measured unit of work, stamping it with the current RSS
  /// (obs/process_stats.h) as `rss_after_bytes` and the RSS at the
  /// previous boundary as `rss_before_bytes`. Run records are the bench's
  /// phase boundaries, so memory growth becomes attributable per phase
  /// instead of one process-global peak (docs/BENCHMARKING.md, "memory
  /// workflow").
  void AddRun(BenchRun run) {
    const uint64_t rss = obs::ProcessCurrentRssBytes();
    run.numbers.emplace_back("rss_before_bytes",
                             static_cast<double>(last_rss_bytes_));
    run.numbers.emplace_back("rss_after_bytes", static_cast<double>(rss));
    last_rss_bytes_ = rss;
    runs_.push_back(std::move(run));
  }
  const std::vector<BenchRun>& runs() const { return runs_; }

  /// Resets the `rss_before_bytes` baseline without recording a run;
  /// ObsScope calls it at startup so the first run's delta starts at the
  /// driver's entry footprint, not zero.
  void MarkRssBoundary() { last_rss_bytes_ = obs::ProcessCurrentRssBytes(); }

 private:
  BenchJson() = default;
  std::vector<BenchRun> runs_;
  uint64_t last_rss_bytes_ = 0;
};

/// Peak resident set size of this process in bytes (0 where unsupported).
/// The implementation — with its Linux-KiB/macOS-bytes ru_maxrss quirk —
/// lives in src/obs/process_stats.h, shared with the MetricsExporter's
/// process.* gauges.
inline uint64_t PeakRssBytes() { return obs::ProcessPeakRssBytes(); }

/// The parsed observability flags of one bench invocation. Split out of
/// ObsScope so the argv handling is directly testable
/// (tests/bench_util_test.cc): Parse() consumes every flag it recognizes
/// and compacts argv/argc around them, leaving unknown arguments for the
/// driver's own parser in their original order.
struct ObsFlags {
  std::string bench_name = "bench";  ///< BaseName(argv[0])
  std::string trace_path;
  std::string metrics_path;
  std::string bench_json_path;
  std::string bench_label = "run";
  std::string journal_path;
  std::string metrics_snapshot_path;
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
      } else if (std::strncmp(arg, "--bench-json=", 13) == 0) {
        flags.bench_json_path = arg + 13;
      } else if (std::strncmp(arg, "--bench-label=", 14) == 0) {
        flags.bench_label = arg + 14;
      } else if (std::strncmp(arg, "--journal=", 10) == 0) {
        flags.journal_path = arg + 10;
      } else if (std::strncmp(arg, "--metrics-snapshot=", 19) == 0) {
        flags.metrics_snapshot_path = arg + 19;
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
///   --metrics=<path>   write a registry snapshot as JSONL at exit
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
///   --bench-json=<path> write a machine-readable perf record (wall time,
///                      per-phase span totals, counters, peak RSS, git rev,
///                      and every BenchJson::AddRun measurement); enables
///                      the tracer for the run even without --trace=
///   --bench-label=<s>  label stored in the bench JSON record (defaults to
///                      "run"); trajectories use e.g. "pre-campaign"
///   --journal=<path>   open the decision-provenance journal for the run
///                      (isum-events-v1 JSONL, src/obs/journal.h); closed
///                      with `journal_end` at exit. `tracecat explain`
///                      reconstructs the run from it
///   --metrics-snapshot=<path> rewrite a metrics-JSONL snapshot file once
///                      per second (and finally at exit) while the run
///                      executes, for CI artifacts and live run health via
///                      `tracecat watch <path>`
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
class ObsScope {
 public:
  ObsScope(int& argc, char** argv) {
    obs::Tracer::Global().SetCurrentThreadName("main");
    flags_ = ObsFlags::Parse(argc, argv);
    BenchJson::Global().MarkRssBoundary();
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
    // --profile= enables tracing like --bench-json= does.
    if (!flags_.trace_path.empty() || !flags_.bench_json_path.empty() ||
        !flags_.profile_path.empty()) {
      obs::Tracer::Global().Enable();
    }
    if (!flags_.journal_path.empty()) {
      const std::string label =
          flags_.bench_label != "run" ? flags_.bench_label : flags_.bench_name;
      if (!obs::Journal::Global().Open(flags_.journal_path, label)) {
        std::fprintf(stderr, "cannot open --journal=%s\n",
                     flags_.journal_path.c_str());
        std::exit(2);
      }
    }
    if (!flags_.metrics_snapshot_path.empty()) {
      obs::MetricsExporterOptions exporter_options;
      exporter_options.snapshot_path = flags_.metrics_snapshot_path;
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
    // allocation gauges into the registry, so the exporter's final snapshot
    // and the --metrics= dump below both see them.
    obs::ProfileDump profile;
    if (profiling_) profile = obs::Profiler::Global().Stop();
    // Shut down the exporter next (joins its worker and writes the final
    // snapshot), then close the journal so `journal_end` is the last event.
    exporter_.reset();
    if (!flags_.journal_path.empty()) {
      const uint64_t events = obs::Journal::Global().events_written();
      obs::Journal::Global().Close();
      std::fprintf(stderr, "wrote %llu journal events to %s\n",
                   static_cast<unsigned long long>(events + 1),
                   flags_.journal_path.c_str());
    }
    obs::TraceDump dump;
    if (!flags_.trace_path.empty() || !flags_.bench_json_path.empty() ||
        !flags_.profile_path.empty()) {
      obs::Tracer::Global().Disable();
      dump = obs::Tracer::Global().Drain();
    }
    if (!flags_.trace_path.empty()) {
      Report(obs::WriteFile(flags_.trace_path, obs::ChromeTraceJson(dump)),
             flags_.trace_path, dump.spans.size(), "spans");
    }
    if (!flags_.metrics_path.empty()) {
      const obs::MetricsSnapshot snapshot =
          obs::MetricsRegistry::Global().Snapshot();
      Report(obs::WriteFile(flags_.metrics_path, obs::MetricsJsonl(snapshot)),
             flags_.metrics_path,
             snapshot.counters.size() + snapshot.gauges.size() +
                 snapshot.histograms.size(),
             "metrics");
    }
    if (!flags_.bench_json_path.empty()) {
      const std::string record = RenderBenchJson(dump, wall_seconds);
      Report(obs::WriteFile(flags_.bench_json_path, record),
             flags_.bench_json_path, BenchJson::Global().runs().size(),
             "bench runs");
    }
    if (profiling_) {
      obs::ProfileMeta meta;
      meta.label = flags_.bench_label;
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

  /// Renders one self-contained bench record: a JSON object written one
  /// scalar or section entry per line so diffs stay readable.
  /// Schema: docs/BENCHMARKING.md.
  std::string RenderBenchJson(const obs::TraceDump& dump,
                              double wall_seconds) const {
    // Per-phase totals, aggregated by span name, descending total.
    struct Phase {
      const char* name;
      uint64_t count = 0;
      uint64_t total_nanos = 0;
      uint64_t max_nanos = 0;
    };
    std::vector<Phase> phases;
    for (const obs::SpanRecord& span : dump.spans) {
      Phase* p = nullptr;
      for (Phase& existing : phases) {
        if (std::strcmp(existing.name, span.name) == 0) {
          p = &existing;
          break;
        }
      }
      if (p == nullptr) {
        phases.push_back(Phase{span.name});
        p = &phases.back();
      }
      ++p->count;
      p->total_nanos += span.dur_nanos;
      p->max_nanos = std::max(p->max_nanos, span.dur_nanos);
    }
    std::sort(phases.begin(), phases.end(), [](const Phase& a, const Phase& b) {
      if (a.total_nanos != b.total_nanos) return a.total_nanos > b.total_nanos;
      return std::strcmp(a.name, b.name) < 0;
    });

    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();

    std::string out;
    out += "{\n";
    out += "\"schema\": \"isum-bench-v1\",\n";
    out += StrFormat("\"label\": \"%s\",\n", flags_.bench_label.c_str());
    out += StrFormat("\"bench\": \"%s\",\n", flags_.bench_name.c_str());
    out += StrFormat("\"git_rev\": \"%s\",\n", ISUM_GIT_REV);
    out += StrFormat("\"wall_seconds\": %.6f,\n", wall_seconds);
    out += StrFormat("\"peak_rss_bytes\": %llu,\n",
                     static_cast<unsigned long long>(PeakRssBytes()));
    out += "\"phases\": [\n";
    for (size_t i = 0; i < phases.size(); ++i) {
      out += StrFormat(
          "{\"name\": \"%s\", \"count\": %llu, \"total_us\": %.3f, "
          "\"max_us\": %.3f}%s\n",
          phases[i].name, static_cast<unsigned long long>(phases[i].count),
          static_cast<double>(phases[i].total_nanos) / 1e3,
          static_cast<double>(phases[i].max_nanos) / 1e3,
          i + 1 < phases.size() ? "," : "");
    }
    out += "],\n";
    out += "\"counters\": [\n";
    for (size_t i = 0; i < snapshot.counters.size(); ++i) {
      out += StrFormat(
          "{\"name\": \"%s\", \"value\": %llu}%s\n",
          snapshot.counters[i].first.c_str(),
          static_cast<unsigned long long>(snapshot.counters[i].second),
          i + 1 < snapshot.counters.size() ? "," : "");
    }
    out += "],\n";
    out += "\"runs\": [\n";
    const std::vector<BenchRun>& runs = BenchJson::Global().runs();
    for (size_t i = 0; i < runs.size(); ++i) {
      std::string line = StrFormat("{\"name\": \"%s\"", runs[i].name.c_str());
      for (const auto& [key, value] : runs[i].numbers) {
        line += StrFormat(", \"%s\": %.9g", key.c_str(), value);
      }
      for (const auto& [key, value] : runs[i].strings) {
        line += StrFormat(", \"%s\": \"%s\"", key.c_str(), value.c_str());
      }
      line += StrFormat("}%s\n", i + 1 < runs.size() ? "," : "");
      out += line;
    }
    out += "]\n";
    out += "}\n";
    return out;
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
