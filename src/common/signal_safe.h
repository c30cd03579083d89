#ifndef ISUM_COMMON_SIGNAL_SAFE_H_
#define ISUM_COMMON_SIGNAL_SAFE_H_

/// Marker for functions that run in (or are reachable from) a signal
/// handler and therefore must be async-signal-safe.
///
/// The annotation expands to nothing — it exists for readers and for the
/// `isum-no-alloc-in-signal` lint rule (tools/lint), which flags
/// allocation, locking, and stdio inside the body of any function marked
/// with it. The contract an annotated function must keep:
///
///  - no allocation: no `new`/`delete`, `malloc`/`free`, and nothing that
///    allocates under the hood (std::string, std::vector growth, ...);
///  - no locking: a mutex held by the interrupted thread self-deadlocks;
///  - no stdio: printf-family functions lock the stream and may allocate;
///  - only lock-free `std::atomic` operations and the POSIX
///    async-signal-safe function list (signal-safety(7));
///  - `errno` must be saved and restored if anything in between can
///    clobber it.
///
/// Place it before the return type, like a specifier:
///
///   ISUM_SIGNAL_SAFE void SigprofHandler(int sig, siginfo_t*, void*);
///
/// Used by the sampling profiler (src/obs/profiler.cc); the constraints
/// are documented in docs/OBSERVABILITY.md.
#define ISUM_SIGNAL_SAFE

#endif  // ISUM_COMMON_SIGNAL_SAFE_H_
