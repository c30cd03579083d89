// tracecat — pretty-prints the observability artifacts the bench drivers
// emit: traces (spans, decision events, metrics ticks and the sampling
// profile), bench baselines, live telemetry, checkpoints. Usage:
//
//   tracecat <trace.json> [--top=N]
//   tracecat bench <bench.json> [<bench2.json>] [--check]
//                  [--rss-tolerance=P]
//   tracecat explain <trace.json> [--check] [--top=N]
//   tracecat profile <trace.json> [--check] [--top=N]
//                    [--min-attributed=P] [--collapsed]
//   tracecat profile --diff <old.json> <new.json> [--top=N]
//   tracecat watch <trace.json> [--interval=S] [--count=N]
//   tracecat ckpt inspect <file.ckpt...>
//   tracecat ckpt verify <file.ckpt...>
//
// The bench subcommand parses isum-bench-v1 files (benchmark/isum_bench
// --record= output, or the frozen BENCH_scalability.json trajectory).
// With two files (or one trajectory file holding several records) it prints
// the per-phase delta between the first and last record. --check validates
// the schema and gates peak RSS growth between the first and last record
// (default tolerance +10%), for CI smoke jobs.
//
// The profile subcommand reads the `profile` event of a --trace= file
// (src/obs/profiler.h): per-phase sample attribution and top frames by
// self samples. --check validates the profile and
// requires --min-attributed=P percent (default 0) of samples to land in a
// named phase. --diff compares two traces' profiles by sample share.
// --collapsed prints the stacks as flamegraph.pl input.
//
// The explain subcommand reconstructs a run from the decision events in
// its --trace= file (src/obs/journal.h): greedy selection trajectory with
// recomputed-vs-recorded selection hash, most contested rounds,
// enumeration rounds, estimated-vs-realized benefit attribution,
// fault/retry, checkpoint and budget timelines. It also reads the file of
// a killed run, reporting the missing ']' and a torn last line. --check
// validates strictly (a cleanly closed file, schema tag, dense seq, known
// events, required fields, hash match) and prints only a verdict.
//
// Without a subcommand, tracecat renders a closed trace's spans (per-phase
// totals, slowest spans) and then its last metrics tick.
//
// The watch subcommand renders live run health from the last metrics tick
// in a --trace= file, finished or still being written: one frame per
// interval.
//
// The ckpt subcommand operates on isum-ckpt-v1 checkpoint files
// (--checkpoint= epochs, src/common/checkpoint.h). `inspect` prints the
// container layout and decoded snapshot metadata; `verify` runs the same
// validation silently and reports ok/error per file — it answers "would a
// resuming run accept this file?" without starting one.
//
// Exits 2 on a usage error (an unknown argument, or a numeric flag value
// that is not wholly a number) and non-zero on unreadable or malformed
// input.

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "tools/tracecat/tracecat.h"

namespace {

/// A numeric flag whose value is not wholly a number (or, for a count, is
/// negative) is a usage error, like an unknown argument.
int MalformedValue(const char* arg) {
  std::fprintf(stderr, "malformed value: %s\n", arg);
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// `tracecat bench ...`: parse one or two isum-bench-v1 files; validate
/// (--check) or print the first-to-last per-phase delta.
int BenchMain(int argc, char** argv) {
  std::vector<std::string> paths;
  bool check_only = false;
  double rss_tolerance_percent = 10.0;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--check") == 0) {
      check_only = true;
    } else if (std::strncmp(arg, "--rss-tolerance=", 16) == 0) {
      if (!isum::ParseNumber(arg + 16, &rss_tolerance_percent)) {
        return MalformedValue(arg);
      }
    } else if (arg[0] != '-' && paths.size() < 2) {
      paths.emplace_back(arg);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: tracecat bench <bench.json> [<bench2.json>] "
                 "[--check] [--rss-tolerance=P]\n");
    return 2;
  }

  std::vector<isum::tracecat::BenchRecord> records;
  for (const std::string& path : paths) {
    std::string content;
    if (!ReadFile(path, &content)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    auto parsed = isum::tracecat::ParseBenchRecords(content);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    for (auto& record : parsed.value()) records.push_back(std::move(record));
  }

  if (check_only) {
    const isum::Status rss =
        isum::tracecat::CheckBenchRss(records, rss_tolerance_percent);
    if (!rss.ok()) {
      std::fprintf(stderr, "%s\n", rss.ToString().c_str());
      return 1;
    }
    std::printf("ok: %zu bench record(s)\n", records.size());
    return 0;
  }
  if (records.size() < 2) {
    const auto& r = records.front();
    std::printf("%s (%s): wall %.2fs, %zu phase(s)\n", r.label.c_str(),
                r.git_rev.c_str(), r.wall_seconds, r.phases.size());
    return 0;
  }
  const std::string delta =
      isum::tracecat::BenchDelta(records.front(), records.back());
  std::fputs(delta.c_str(), stdout);
  return 0;
}

/// `tracecat explain ...`: reconstruct (or with --check, strictly validate)
/// the decision events of a trace file.
int ExplainMain(int argc, char** argv) {
  std::string path;
  bool check_only = false;
  uint64_t top_k = 5;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--check") == 0) {
      check_only = true;
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      if (!isum::ParseCount(arg + 6, &top_k)) return MalformedValue(arg);
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(
        stderr, "usage: tracecat explain <trace.json> [--check] [--top=N]\n");
    return 2;
  }

  std::string content;
  if (!ReadFile(path, &content)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  auto journal = isum::tracecat::ParseJournal(content);
  if (!journal.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 journal.status().ToString().c_str());
    return 1;
  }
  if (check_only) {
    auto checked = isum::tracecat::CheckJournal(journal.value());
    if (!checked.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   checked.status().ToString().c_str());
      return 1;
    }
    std::printf("ok: %zu decision event(s)\n", checked.value());
    return 0;
  }
  auto report = isum::tracecat::ExplainJournal(journal.value(), top_k);
  if (!report.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  std::fputs(report.value().c_str(), stdout);
  return 0;
}

/// `tracecat profile ...`: render (or with --check, validate) the profile
/// of one trace file, print its stacks as flamegraph.pl input
/// (--collapsed), or with --diff compare two by sample share.
int ProfileMain(int argc, char** argv) {
  std::vector<std::string> paths;
  bool check_only = false;
  bool diff = false;
  bool collapsed = false;
  uint64_t top_k = 10;
  double min_attributed_percent = 0.0;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--check") == 0) {
      check_only = true;
    } else if (std::strcmp(arg, "--diff") == 0) {
      diff = true;
    } else if (std::strcmp(arg, "--collapsed") == 0) {
      collapsed = true;
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      if (!isum::ParseCount(arg + 6, &top_k)) return MalformedValue(arg);
    } else if (std::strncmp(arg, "--min-attributed=", 17) == 0) {
      if (!isum::ParseNumber(arg + 17, &min_attributed_percent)) {
        return MalformedValue(arg);
      }
    } else if (arg[0] != '-' && paths.size() < 2) {
      paths.emplace_back(arg);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  const size_t want_paths = diff ? 2 : 1;
  if (paths.size() != want_paths || check_only + diff + collapsed > 1) {
    std::fprintf(stderr,
                 "usage: tracecat profile <trace.json> [--check] [--top=N] "
                 "[--min-attributed=P] [--collapsed]\n"
                 "       tracecat profile --diff <old.json> <new.json> "
                 "[--top=N]\n");
    return 2;
  }

  std::vector<isum::tracecat::ProfileRecord> records;
  for (const std::string& path : paths) {
    std::string content;
    if (!ReadFile(path, &content)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    auto parsed = isum::tracecat::ParseProfile(content);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    records.push_back(std::move(parsed).value());
  }

  if (diff) {
    const std::string delta =
        isum::tracecat::ProfileDiff(records.front(), records.back(), top_k);
    std::fputs(delta.c_str(), stdout);
    return 0;
  }
  if (collapsed) {
    std::fputs(isum::tracecat::CollapsedStacks(records.front()).c_str(),
               stdout);
    return 0;
  }
  if (check_only) {
    auto checked =
        isum::tracecat::CheckProfile(records.front(), min_attributed_percent);
    if (!checked.ok()) {
      std::fprintf(stderr, "%s: %s\n", paths.front().c_str(),
                   checked.status().ToString().c_str());
      return 1;
    }
    std::printf("ok: %zu profile sample(s), %.1f%% attributed\n",
                checked.value(), records.front().attributed_percent);
    return 0;
  }
  std::fputs(isum::tracecat::ProfileReport(records.front(), top_k).c_str(),
             stdout);
  return 0;
}

/// `tracecat watch ...`: render live run-health frames from the last
/// metrics tick of a trace file, polling it.
int WatchMain(int argc, char** argv) {
  std::string path;
  double interval_seconds = 1.0;
  int count = 1;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--interval=", 11) == 0) {
      if (!isum::ParseNumber(arg + 11, &interval_seconds)) {
        return MalformedValue(arg);
      }
    } else if (std::strncmp(arg, "--count=", 8) == 0) {
      uint64_t frames = 0;
      if (!isum::ParseCount(arg + 8, &frames)) return MalformedValue(arg);
      count = static_cast<int>(std::min<uint64_t>(frames, INT_MAX));
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: tracecat watch <trace.json> [--interval=S] "
                 "[--count=N]\n");
    return 2;
  }
  if (count < 1) count = 1;
  if (interval_seconds < 0.05) interval_seconds = 0.05;

  int rendered = 0;
  for (int frame = 0; frame < count; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(interval_seconds));
    }
    std::string content;
    if (!ReadFile(path, &content)) {
      // Polling a run that has not started (or already finished) is
      // normal; report and keep polling unless this is the only frame.
      std::fprintf(stderr, "frame %d/%d: cannot read %s\n", frame + 1, count,
                   path.c_str());
      if (count == 1) return 1;
      continue;
    }
    auto tick = isum::tracecat::LastMetrics(content);
    if (!tick.ok()) {
      std::fprintf(stderr, "frame %d/%d: %s: %s\n", frame + 1, count,
                   path.c_str(), tick.status().ToString().c_str());
      // A run that has not written its first tick yet is normal, too.
      if (count == 1 || tick.status().code() != isum::StatusCode::kNotFound) {
        return 1;
      }
      continue;
    }
    if (count > 1) std::printf("--- frame %d/%d ---\n", frame + 1, count);
    std::fputs(isum::tracecat::MetricsReport(tick.value()).c_str(), stdout);
    std::fflush(stdout);
    ++rendered;
  }
  return rendered > 0 ? 0 : 1;
}

/// `tracecat ckpt inspect|verify ...`: decode (or just validate)
/// isum-ckpt-v1 checkpoint files.
int CkptMain(int argc, char** argv) {
  std::string mode;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (mode.empty() &&
        (std::strcmp(arg, "inspect") == 0 || std::strcmp(arg, "verify") == 0)) {
      mode = arg;
    } else if (arg[0] != '-') {
      paths.emplace_back(arg);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (mode.empty() || paths.empty()) {
    std::fprintf(stderr,
                 "usage: tracecat ckpt inspect <file.ckpt...>\n"
                 "       tracecat ckpt verify <file.ckpt...>\n");
    return 2;
  }
  int bad = 0;
  for (const std::string& path : paths) {
    auto report = isum::tracecat::InspectCheckpoint(path);
    if (!report.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   report.status().ToString().c_str());
      ++bad;
      continue;
    }
    if (mode == "verify") {
      std::printf("ok: %s\n", path.c_str());
    } else {
      std::fputs(report.value().c_str(), stdout);
    }
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "bench") == 0) {
    return BenchMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "explain") == 0) {
    return ExplainMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "profile") == 0) {
    return ProfileMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "watch") == 0) {
    return WatchMain(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "ckpt") == 0) {
    return CkptMain(argc, argv);
  }
  std::string trace_path;
  uint64_t top_k = 10;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--top=", 6) == 0) {
      if (!isum::ParseCount(arg + 6, &top_k)) return MalformedValue(arg);
    } else if (trace_path.empty() && arg[0] != '-') {
      trace_path = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  if (trace_path.empty()) {
    std::fprintf(stderr, "usage: tracecat <trace.json> [--top=N]\n");
    return 2;
  }

  std::string trace_content;
  if (!ReadFile(trace_path, &trace_content)) {
    std::fprintf(stderr, "cannot read %s\n", trace_path.c_str());
    return 1;
  }
  const auto events = isum::tracecat::ParseChromeTrace(trace_content);
  if (!events.ok()) {
    std::fprintf(stderr, "%s: %s\n", trace_path.c_str(),
                 events.status().ToString().c_str());
    return 1;
  }
  std::string report = isum::tracecat::Report(events.value(), top_k);
  // Span-only traces (isum_bench's) carry no metrics tick.
  const auto tick = isum::tracecat::LastMetrics(trace_content);
  if (tick.ok()) {
    report += "\n" + isum::tracecat::MetricsReport(tick.value());
  } else if (tick.status().code() != isum::StatusCode::kNotFound) {
    std::fprintf(stderr, "%s: %s\n", trace_path.c_str(),
                 tick.status().ToString().c_str());
    return 1;
  }
  std::fputs(report.c_str(), stdout);
  return 0;
}
