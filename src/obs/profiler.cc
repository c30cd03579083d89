#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define ISUM_PROFILER_HAVE_SIGPROF 1
#include <sys/time.h>
#endif

#if defined(ISUM_PROFILER_HAVE_SIGPROF) && defined(__has_include)
#if __has_include(<execinfo.h>)
#define ISUM_PROFILER_HAVE_BACKTRACE 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#endif
#endif

#include "obs/metrics.h"

namespace isum::obs {

namespace {

/// Frames captured per sample. 24 covers the repo's deepest pipelines;
/// deeper stacks are truncated at the outer end (the leaf frames — the
/// interesting ones — come first from backtrace()).
constexpr int kMaxFrames = 24;

struct RawSample {
  const char* phase;
  int num_frames;
  void* pcs[kMaxFrames];
};

/// Lock-free sample sink: the handler claims a slot with one fetch_add, so
/// any thread — registered with the tracer or not — can be sampled without
/// allocation or locking. Preallocated in Start(), drained in Stop().
struct SampleBuffer {
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> dropped{0};
  uint64_t capacity = 0;
  RawSample* samples = nullptr;
};

/// The buffer the SIGPROF handler writes into; null between sessions (the
/// handler stays installed but becomes a no-op).
std::atomic<SampleBuffer*> g_active_buffer{nullptr};
bool g_handler_installed = false;

// --- per-thread phase stack (read by the signal handler) ---

constexpr uint32_t kPhaseStackDepth = 64;
constinit thread_local const char* g_phase_stack[kPhaseStackDepth] = {};
constinit thread_local std::atomic<uint32_t> g_phase_depth{0};

/// Best-effort symbol name for one pc: dynamic-symbol lookup plus C++
/// demangling. Executables export their symbols to dladdr via
/// CMAKE_ENABLE_EXPORTS (-rdynamic) in the top-level CMakeLists. Functions
/// with internal linkage have no dynamic symbol; they print as
/// `<object basename>+0x<offset into the object>`, which ASLR does not move,
/// so profiles of two runs still match them. Bare hex only when no loaded
/// object contains the pc.
std::string SymbolizePc(void* pc) {
#ifdef ISUM_PROFILER_HAVE_BACKTRACE
  Dl_info info;
  if (dladdr(pc, &info) != 0) {
    if (info.dli_sname != nullptr) {
      int status = -1;
      char* demangled =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      if (status == 0 && demangled != nullptr) {
        std::string name(demangled);
        std::free(demangled);
        return name;
      }
      std::free(demangled);
      return info.dli_sname;
    }
    if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
      const char* slash = std::strrchr(info.dli_fname, '/');
      char offset[32];
      std::snprintf(offset, sizeof(offset), "+0x%llx",
                    static_cast<unsigned long long>(
                        reinterpret_cast<uintptr_t>(pc) -
                        reinterpret_cast<uintptr_t>(info.dli_fbase)));
      return std::string(slash == nullptr ? info.dli_fname : slash + 1) +
             offset;
    }
  }
#endif
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<uintptr_t>(pc)));
  return buf;
}

/// Drops the handler's own frames from the innermost end of a symbolized
/// stack. The frame directly above `SigprofHandler` is always the signal
/// trampoline (`__restore_rt`), which often has no dynamic symbol and
/// would otherwise survive as a constant hex leaf on every sample — so it
/// is skipped positionally, not by name. Falls back to trimming the
/// single leading frame (the handler) when neither name resolves.
/// Harmless if the heuristic misses — only the leaf frame is affected.
size_t LeadingHandlerFrames(const std::vector<std::string>& names) {
  const size_t probe = std::min<size_t>(names.size(), 4);
  for (size_t i = 0; i < probe; ++i) {
    if (names[i].find("SigprofHandler") != std::string::npos) {
      return std::min(i + 2, names.size());
    }
    if (names[i].find("__restore_rt") != std::string::npos) {
      return i + 1;
    }
  }
  return names.empty() ? 0 : 1;
}

}  // namespace

namespace internal {

void PushPhase(const char* name) {
  const uint32_t depth = g_phase_depth.load(std::memory_order_relaxed);
  if (depth < kPhaseStackDepth) g_phase_stack[depth] = name;
  // Order the slot write before the depth publication for the handler,
  // which runs on this same thread: a compiler fence is sufficient.
  std::atomic_signal_fence(std::memory_order_release);
  g_phase_depth.store(depth + 1, std::memory_order_relaxed);
}

void PopPhase() {
  const uint32_t depth = g_phase_depth.load(std::memory_order_relaxed);
  if (depth > 0) g_phase_depth.store(depth - 1, std::memory_order_relaxed);
}

ISUM_SIGNAL_SAFE const char* CurrentPhase() {
  const uint32_t depth = g_phase_depth.load(std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_acquire);
  if (depth == 0) return nullptr;
  const uint32_t top = std::min(depth, kPhaseStackDepth) - 1;
  return g_phase_stack[top];
}

// External linkage on purpose (not the anonymous namespace): with
// CMAKE_ENABLE_EXPORTS the handler then has a dynamic symbol, so
// Stop()'s symbolization can recognize it by name and trim the
// handler + trampoline frames off every captured stack.
ISUM_SIGNAL_SAFE void SigprofHandler(int /*sig*/, siginfo_t* /*info*/,
                                     void* /*ucontext*/) {
  const int saved_errno = errno;
  SampleBuffer* buffer = g_active_buffer.load(std::memory_order_acquire);
  if (buffer != nullptr) {
    const uint64_t slot = buffer->next.fetch_add(1, std::memory_order_relaxed);
    if (slot < buffer->capacity) {
      RawSample& sample = buffer->samples[slot];
      sample.phase = CurrentPhase();
#ifdef ISUM_PROFILER_HAVE_BACKTRACE
      // backtrace() is not on the POSIX async-signal-safe list, but its
      // lazy one-time initialization (the only allocating part on glibc)
      // was forced in Start() before the timer was armed; the walk itself
      // is reentrant. This is the standard sampling-profiler pattern.
      sample.num_frames = backtrace(sample.pcs, kMaxFrames);
#else
      sample.num_frames = 0;
#endif
    } else {
      buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}

}  // namespace internal

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

bool Profiler::running() const {
  MutexLock lock(mu_);
  return running_;
}

uint64_t Profiler::samples_captured() const {
  SampleBuffer* buffer = g_active_buffer.load(std::memory_order_acquire);
  if (buffer == nullptr) return 0;
  return std::min(buffer->next.load(std::memory_order_relaxed),
                  buffer->capacity);
}

bool Profiler::Start(const ProfilerOptions& options) {
#ifndef ISUM_PROFILER_HAVE_SIGPROF
  (void)options;
  return false;
#else
  MutexLock lock(mu_);
  if (running_) return false;
  options_ = options;
  options_.sample_hz = std::clamp(options_.sample_hz, 1, 10000);
  options_.max_samples = std::max<size_t>(options_.max_samples, 16);

  auto* buffer = new SampleBuffer();
  buffer->capacity = options_.max_samples;
  buffer->samples = new RawSample[buffer->capacity];

#ifdef ISUM_PROFILER_HAVE_BACKTRACE
  // Force glibc's lazy unwinder setup (it dlopens libgcc_s and allocates
  // on the first call) outside signal context, before the timer is armed.
  void* warmup[kMaxFrames];
  (void)backtrace(warmup, kMaxFrames);
#endif

  if (!g_handler_installed) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = &internal::SigprofHandler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0) {
      delete[] buffer->samples;
      delete buffer;
      return false;
    }
    g_handler_installed = true;
  }
  g_active_buffer.store(buffer, std::memory_order_release);

#ifdef ISUM_OBS_PROFILING
  internal::ArmAllocHooks();
#endif

  itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  const long interval_usec =
      std::max(1L, 1'000'000L / static_cast<long>(options_.sample_hz));
  timer.it_interval.tv_usec = interval_usec;
  timer.it_value.tv_usec = interval_usec;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
#ifdef ISUM_OBS_PROFILING
    (void)internal::DisarmAllocHooks();
#endif
    g_active_buffer.store(nullptr, std::memory_order_release);
    delete[] buffer->samples;
    delete buffer;
    return false;
  }
  running_ = true;
  return true;
#endif  // ISUM_PROFILER_HAVE_SIGPROF
}

ProfileDump Profiler::Stop() {
  MutexLock lock(mu_);
  ProfileDump dump;
  if (!running_) return dump;
  running_ = false;
  dump.sample_hz = options_.sample_hz;

#ifdef ISUM_PROFILER_HAVE_SIGPROF
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  (void)setitimer(ITIMER_PROF, &off, nullptr);
#endif
  SampleBuffer* buffer =
      g_active_buffer.exchange(nullptr, std::memory_order_acq_rel);

#ifdef ISUM_OBS_PROFILING
  internal::AllocSnapshot alloc = internal::DisarmAllocHooks();
  dump.alloc_enabled = true;
  dump.alloc_total_bytes = alloc.total_bytes;
  dump.alloc_total_count = alloc.total_count;
  dump.alloc_live_bytes = alloc.live_bytes;
  dump.alloc_peak_bytes = alloc.peak_bytes;
  for (const internal::AllocPhaseTotals& phase : alloc.phases) {
    // Merge by content: distinct static strings can spell the same name.
    const std::string name = phase.phase != nullptr ? phase.phase : "";
    ProfileAllocPhase* merged = nullptr;
    for (ProfileAllocPhase& existing : dump.alloc_phases) {
      if (existing.phase == name) {
        merged = &existing;
        break;
      }
    }
    if (merged == nullptr) {
      dump.alloc_phases.push_back(ProfileAllocPhase{name, 0, 0});
      merged = &dump.alloc_phases.back();
    }
    merged->bytes += phase.bytes;
    merged->count += phase.count;
  }
  std::sort(dump.alloc_phases.begin(), dump.alloc_phases.end(),
            [](const ProfileAllocPhase& a, const ProfileAllocPhase& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              return a.phase < b.phase;
            });
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("alloc.live_bytes")
      ->Set(static_cast<double>(dump.alloc_live_bytes));
  registry.GetGauge("alloc.peak_bytes")
      ->Set(static_cast<double>(dump.alloc_peak_bytes));
  registry.GetCounter("alloc.bytes_total")->Add(dump.alloc_total_bytes);
  registry.GetCounter("alloc.count_total")->Add(dump.alloc_total_count);
  for (const ProfileAllocPhase& phase : dump.alloc_phases) {
    if (phase.phase.empty()) continue;
    registry.GetCounter("alloc." + phase.phase + ".bytes")->Add(phase.bytes);
    registry.GetCounter("alloc." + phase.phase + ".count")->Add(phase.count);
  }
#endif  // ISUM_OBS_PROFILING

  if (buffer == nullptr) return dump;
  // One in-flight signal can still be writing the slot it claimed before
  // the exchange above; it bounds-checked the slot and the buffer stays
  // alive until the end of this function, so the worst case is one sample
  // racing into a slot we read below — acceptable for a sampler.
  const uint64_t captured = std::min(
      buffer->next.load(std::memory_order_acquire), buffer->capacity);
  dump.samples = captured;
  dump.dropped = buffer->dropped.load(std::memory_order_relaxed);

  // Symbolize (cached per pc) and aggregate unique (phase, stack) pairs.
  std::unordered_map<void*, std::string> symbol_cache;
  auto symbol = [&symbol_cache](void* pc) -> const std::string& {
    auto it = symbol_cache.find(pc);
    if (it == symbol_cache.end()) {
      it = symbol_cache.emplace(pc, SymbolizePc(pc)).first;
    }
    return it->second;
  };
  std::unordered_map<std::string, size_t> stack_index;
  for (uint64_t i = 0; i < captured; ++i) {
    const RawSample& sample = buffer->samples[i];
    if (sample.phase != nullptr) ++dump.attributed;
    // Innermost-first from backtrace(); trim our handler, then reverse to
    // outermost-first for the collapsed/flamegraph convention.
    std::vector<std::string> names;
    const int num_frames = std::clamp(sample.num_frames, 0, kMaxFrames);
    names.reserve(static_cast<size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f) names.push_back(symbol(sample.pcs[f]));
    names.erase(names.begin(),
                names.begin() + static_cast<ptrdiff_t>(
                                    LeadingHandlerFrames(names)));
    std::reverse(names.begin(), names.end());

    std::string key = sample.phase != nullptr ? sample.phase : "";
    for (const std::string& name : names) {
      key += '\n';
      key += name;
    }
    auto [it, inserted] = stack_index.emplace(key, dump.stacks.size());
    if (inserted) {
      ProfileStack stack;
      stack.phase = sample.phase != nullptr ? sample.phase : "";
      stack.frames = std::move(names);
      dump.stacks.push_back(std::move(stack));
    }
    ++dump.stacks[it->second].count;
  }
  std::sort(dump.stacks.begin(), dump.stacks.end(),
            [](const ProfileStack& a, const ProfileStack& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.phase != b.phase) return a.phase < b.phase;
              return a.frames < b.frames;
            });
  delete[] buffer->samples;
  delete buffer;
  return dump;
}

}  // namespace isum::obs
