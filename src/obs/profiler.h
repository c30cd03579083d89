#ifndef ISUM_OBS_PROFILER_H_
#define ISUM_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/signal_safe.h"
#include "common/thread_annotations.h"

namespace isum::obs {

/// Sampling profiler: the third pillar of the obs layer beside metrics
/// (obs/metrics.h) and tracing (obs/trace.h).
///
/// A POSIX interval timer (ITIMER_PROF) delivers SIGPROF at `sample_hz`
/// of consumed CPU time; the handler captures a backtrace plus the
/// innermost active TraceSpan name on the interrupted thread into a
/// preallocated lock-free sample buffer. Samples therefore aggregate *per
/// phase* ("compress/feature-extraction" -> its hot frames).
/// Symbolization (dladdr, then the object's ELF .symtab for functions with
/// internal linkage, plus demangling) happens at Stop() — the handler
/// itself is async-signal-safe (common/signal_safe.h).
///
/// Determinism: like the tracer, the profiler observes and never steers —
/// no algorithm reads sample state, so profiled runs keep byte-identical
/// selections (asserted by the profile-smoke CI job).
///
/// Bench drivers get all of this through bench_util.h ObsScope: every
/// --trace= run samples at the default sample_hz, and
/// Tracer::WriteProfile (obs/trace.h) writes the dump into the trace file
/// as one `profile` event, which `tracecat profile` reads back.

struct ProfilerOptions {
  /// SIGPROF frequency in Hz of *CPU time* (so an idle process samples
  /// rarely and a saturated one at ~hz x utilized cores). Clamped to
  /// [1, 10000]. 100 Hz adds well under 5% overhead (CI-asserted).
  int sample_hz = 100;
  /// Sample-buffer capacity, preallocated at Start() so the signal handler
  /// never allocates. Samples past the capacity are counted as dropped.
  size_t max_samples = 1 << 15;
};

/// One aggregated unique (phase, call stack): `frames` is symbolized,
/// outermost first; `phase` is "" for samples taken outside any span.
struct ProfileStack {
  std::string phase;
  std::vector<std::string> frames;
  uint64_t count = 0;
};

/// Result of Profiler::Stop(): the aggregated samples.
struct ProfileDump {
  int sample_hz = 0;
  uint64_t samples = 0;     ///< captured (post-aggregation sum of counts)
  uint64_t dropped = 0;     ///< lost to a full sample buffer
  uint64_t attributed = 0;  ///< samples carrying a non-empty phase
  /// Unique stacks, descending count (ties by phase then frames).
  std::vector<ProfileStack> stacks;
};

class Profiler {
 public:
  /// The process-wide profiler ObsScope drives. Only one session can run
  /// at a time (ITIMER_PROF is per-process).
  static Profiler& Global();

  /// Starts a sampling session. Returns false if a session is already
  /// running or the platform has no ITIMER_PROF. The SIGPROF handler is
  /// installed on first use and stays installed (as a no-op between
  /// sessions) so a racing late signal can never hit SIG_DFL and kill the
  /// process.
  bool Start(const ProfilerOptions& options) ISUM_EXCLUDES(mu_);

  /// Disarms the timer, symbolizes and aggregates the captured samples,
  /// and returns the dump. Returns a default dump when not running.
  ProfileDump Stop() ISUM_EXCLUDES(mu_);

  bool running() const ISUM_EXCLUDES(mu_);

  /// Samples captured so far in the running session (0 when idle).
  /// Approximate (the buffer fills concurrently); intended for tests and
  /// progress reporting.
  uint64_t samples_captured() const;

 private:
  Profiler() = default;

  mutable Mutex mu_;
  bool running_ ISUM_GUARDED_BY(mu_) = false;
  ProfilerOptions options_ ISUM_GUARDED_BY(mu_);
};

namespace internal {

/// Per-thread phase stack maintained by TraceSpan::Begin/End for recording
/// spans. The stack lives in constinit thread_local storage so the SIGPROF
/// handler — which runs on the interrupted thread — can read it without
/// locks or allocation; atomic_signal_fences order the slot write against
/// the depth publication. Deeper nesting than the fixed capacity keeps
/// counting but attributes to the deepest stored span.
void PushPhase(const char* name);
void PopPhase();
/// Innermost active span name on the calling thread (nullptr if none).
ISUM_SIGNAL_SAFE const char* CurrentPhase();

}  // namespace internal

}  // namespace isum::obs

#endif  // ISUM_OBS_PROFILER_H_
