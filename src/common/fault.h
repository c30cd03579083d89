#ifndef ISUM_COMMON_FAULT_H_
#define ISUM_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace isum {

/// Deterministic process-wide fault injection for robustness testing.
///
/// Library code declares named fault sites — `ISUM_FAULT_POINT("whatif.cost")`
/// returns a Status — and the injector decides, per configured site, whether
/// to fail the call (Status::Unavailable) or delay it (SleepForNanos). The
/// decision is a pure function of (seed, site, per-site invocation index),
/// so a fixed seed replays the identical fault sequence; see
/// docs/ROBUSTNESS.md for the site inventory and determinism rules.
///
/// Configuration comes from the ISUM_FAULTS environment variable or a
/// --faults= flag (bench_util.h). The spec is `;`-separated flat JSON
/// objects, parsed with common/jsonl.h:
///
///   {"seed":42};{"site":"whatif.cost","kind":"error","p":0.25};
///   {"site":"*","kind":"latency","p":1.0,"ms":0.5};
///   {"site":"compress.select","kind":"error","p":1.0,"after":7}
///
///   seed   decision seed (one per spec; default 0x5EED)
///   site   fault site name, or "*" to match every site
///   kind   "error" (return Status::Unavailable) or "latency" (sleep, then
///          proceed)
///   p      injection probability in [0, 1]
///   ms     latency kinds only: injected delay in milliseconds (fractional
///          allowed)
///   after  optional: rule stays dormant for the first N matching
///          invocations (default 0). With p=1.0 this fires deterministically
///          at exactly invocation N — the chaos harness's "kill at round N"
///          primitive (docs/ROBUSTNESS.md).
///
/// Every injected latency is recorded in a per-site histogram named
/// `fault.latency.<site>` with dots replaced by underscores (e.g.
/// `fault.latency.whatif_cost`), surfaced by `tracecat` robustness output.
///
/// Cost model: when no faults are configured the per-site check is a single
/// relaxed atomic load (FaultInjector::Armed()). When armed, each matching
/// decision bumps a per-fault atomic counter; injections are mirrored into
/// the metrics registry as "fault.injected".
///
/// Thread-safety: Inject() may run concurrently from any thread. Configure()
/// swaps the configuration's shared_ptr under `config_mu_`, so it is safe —
/// though pointless — to reconfigure while sites are firing. Inject() holds
/// that mutex only to copy the pointer; it decides and sleeps on its own
/// snapshot, which is immutable except for the per-rule invocation
/// counters (relaxed atomics). Inject() runs only when armed, so a disarmed
/// ISUM_FAULT_POINT on the what-if hot path still reads one relaxed atomic
/// and takes no lock.
class FaultInjector {
 public:
  enum class Kind { kError, kLatency };

  /// One configured fault rule.
  struct Fault {
    std::string site;  ///< site name, or "*" for every site
    Kind kind = Kind::kError;
    double probability = 0.0;
    uint64_t latency_nanos = 0;
    uint64_t after = 0;      ///< dormant for the first `after` invocations
    uint64_t site_hash = 0;  ///< cached HashBytes(site)
    /// Per-rule invocation index; the decision stream position. Mutable so
    /// a shared const Config can advance it.
    mutable std::atomic<uint64_t> invocations{0};
  };

  /// The process-wide injector every ISUM_FAULT_POINT site consults.
  static FaultInjector& Global();

  /// Parses `spec` (grammar above) and installs it, replacing any previous
  /// configuration. An empty/blank spec disarms the injector. On a parse
  /// error nothing is installed.
  Status Configure(const std::string& spec);

  /// Configures from the ISUM_FAULTS environment variable (no-op when
  /// unset; an already-armed injector is left alone so --faults= wins).
  Status ConfigureFromEnvironment();

  /// Disarms and forgets every configured fault.
  void Reset();

  /// True when any fault is configured — the zero-cost gate every site
  /// reads before consulting the injector.
  static bool Armed() { return armed_.load(std::memory_order_relaxed); }

  /// Full per-site decision: returns Status::Unavailable for an injected
  /// error, sleeps for latency faults, OK otherwise. Call through
  /// ISUM_FAULT_POINT / CheckFault so disarmed runs skip it entirely.
  Status Inject(const char* site);

  /// Decision seed of the installed configuration (0 when disarmed).
  uint64_t seed() const;

  /// Total faults injected (errors + latencies) since the last Configure.
  uint64_t injected() const { return injected_.load(std::memory_order_relaxed); }

  /// Names of the configured sites (for reports; "*" listed verbatim).
  std::vector<std::string> ConfiguredSites() const;

 private:
  struct Config {
    uint64_t seed = 0;
    std::vector<std::unique_ptr<Fault>> faults;
  };

  FaultInjector() = default;

  /// The installed configuration (null when disarmed).
  std::shared_ptr<const Config> Snapshot() const;
  void Install(std::shared_ptr<const Config> config);

  inline static std::atomic<bool> armed_{false};
  std::atomic<uint64_t> injected_{0};
  mutable Mutex config_mu_;
  std::shared_ptr<const Config> config_ ISUM_GUARDED_BY(config_mu_);
};

/// The per-site check. Reads one relaxed atomic when no faults are
/// configured.
inline Status CheckFault(const char* site) {
  if (!FaultInjector::Armed()) return Status::OK();
  return FaultInjector::Global().Inject(site);
}

/// Declares a named fault site; evaluates to a Status.
#define ISUM_FAULT_POINT(site) ::isum::CheckFault(site)

}  // namespace isum

#endif  // ISUM_COMMON_FAULT_H_
