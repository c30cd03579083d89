// Interposing operator new/delete hooks for the allocation half of the
// profiler (obs/profiler.h). This translation unit is only added to
// isum_obs_core when the tree is configured with -DISUM_OBS_PROFILING=ON —
// the OFF build contains no replacement operators at all, mirroring the
// tracer's compile-time elision. Because `operator new` is an undefined
// symbol in every object that allocates, the archive member is linked in
// ahead of libstdc++'s definition whenever the define is active.
//
// Cost model: disarmed (the default even when compiled in), every
// allocation pays one relaxed atomic load. Armed, an allocation charges
// its usable size to the calling thread's innermost active span
// (internal::CurrentPhase) in a fixed lock-free phase table and maintains
// process-wide live/peak accumulators. The hooks never allocate, lock, or
// touch stdio — they are on every allocation path in the process,
// including inside signal-unsafe contexts.
//
// Accounting is deliberately approximate at the edges: memory allocated
// before arming but freed during the session drives live_bytes negative
// (consumers clamp), and frees are not phase-attributed (the owning phase
// is unknowable without a per-pointer table, which would need allocation).
#ifdef ISUM_OBS_PROFILING

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__) || defined(__APPLE__)
#define ISUM_ALLOC_HAVE_USABLE_SIZE 1
#if defined(__APPLE__)
#include <malloc/malloc.h>
#else
#include <malloc.h>
#endif
#endif

#include "obs/profiler.h"

namespace isum::obs::internal {

namespace {

/// Fixed phase table: span names are static strings, so identity-compare
/// and CAS-insert keep the hot path lock-free. 64 slots comfortably holds
/// the repo's span taxonomy; overflow falls back to the unattributed
/// accumulators (and is counted, so the dump can report it).
constexpr size_t kAllocPhaseSlots = 64;

struct AllocPhaseSlot {
  std::atomic<const char*> phase{nullptr};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> count{0};
};

AllocPhaseSlot g_phase_slots[kAllocPhaseSlots];
std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_total_bytes{0};
std::atomic<uint64_t> g_total_count{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<uint64_t> g_peak_bytes{0};
std::atomic<uint64_t> g_unattributed_bytes{0};
std::atomic<uint64_t> g_unattributed_count{0};

size_t UsableSize(void* ptr, [[maybe_unused]] size_t requested) {
#ifdef ISUM_ALLOC_HAVE_USABLE_SIZE
#if defined(__APPLE__)
  return ::malloc_size(ptr);
#else
  return ::malloc_usable_size(ptr);
#endif
#else
  (void)ptr;
  return requested;
#endif
}

void RecordAlloc(void* ptr, size_t requested) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  const uint64_t bytes = UsableSize(ptr, requested);
  g_total_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_total_count.fetch_add(1, std::memory_order_relaxed);
  const int64_t live =
      g_live_bytes.fetch_add(static_cast<int64_t>(bytes),
                             std::memory_order_relaxed) +
      static_cast<int64_t>(bytes);
  if (live > 0) {
    uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (static_cast<uint64_t>(live) > peak &&
           !g_peak_bytes.compare_exchange_weak(
               peak, static_cast<uint64_t>(live),
               std::memory_order_relaxed)) {
    }
  }
  const char* phase = CurrentPhase();
  if (phase == nullptr) {
    g_unattributed_bytes.fetch_add(bytes, std::memory_order_relaxed);
    g_unattributed_count.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (AllocPhaseSlot& slot : g_phase_slots) {
    const char* occupant = slot.phase.load(std::memory_order_acquire);
    if (occupant == nullptr) {
      if (!slot.phase.compare_exchange_strong(occupant, phase,
                                              std::memory_order_acq_rel)) {
        if (occupant != phase) continue;  // lost the race to another phase
      }
    } else if (occupant != phase) {
      continue;
    }
    slot.bytes.fetch_add(bytes, std::memory_order_relaxed);
    slot.count.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Table full: keep the totals honest via the unattributed bucket.
  g_unattributed_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_unattributed_count.fetch_add(1, std::memory_order_relaxed);
}

void RecordFree(void* ptr) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  const uint64_t bytes = UsableSize(ptr, 0);
  g_live_bytes.fetch_sub(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
}

}  // namespace

void ArmAllocHooks() { g_armed.store(true, std::memory_order_release); }

AllocSnapshot DisarmAllocHooks() {
  g_armed.store(false, std::memory_order_release);
  AllocSnapshot snapshot;
  snapshot.total_bytes = g_total_bytes.exchange(0, std::memory_order_relaxed);
  snapshot.total_count = g_total_count.exchange(0, std::memory_order_relaxed);
  snapshot.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  // Live bytes carry over between sessions; peak restarts from them.
  snapshot.peak_bytes = g_peak_bytes.exchange(
      snapshot.live_bytes > 0 ? static_cast<uint64_t>(snapshot.live_bytes) : 0,
      std::memory_order_relaxed);
  for (AllocPhaseSlot& slot : g_phase_slots) {
    const char* phase = slot.phase.load(std::memory_order_acquire);
    if (phase == nullptr) continue;
    const uint64_t bytes = slot.bytes.exchange(0, std::memory_order_relaxed);
    const uint64_t count = slot.count.exchange(0, std::memory_order_relaxed);
    if (bytes != 0 || count != 0) {
      snapshot.phases.push_back(AllocPhaseTotals{phase, bytes, count});
    }
  }
  const uint64_t stray_bytes =
      g_unattributed_bytes.exchange(0, std::memory_order_relaxed);
  const uint64_t stray_count =
      g_unattributed_count.exchange(0, std::memory_order_relaxed);
  if (stray_bytes != 0 || stray_count != 0) {
    snapshot.phases.push_back(
        AllocPhaseTotals{nullptr, stray_bytes, stray_count});
  }
  return snapshot;
}

}  // namespace isum::obs::internal

// ---- global replacement operators ----
//
// Every variant funnels through malloc/posix_memalign and free, so mixing
// with the (also malloc-backed) default operators of libstdc++ — e.g. for
// allocations made before this archive member was linked — stays safe.

namespace {

void* TrackedAlloc(std::size_t size) {
  void* ptr = std::malloc(size != 0 ? size : 1);
  if (ptr != nullptr) isum::obs::internal::RecordAlloc(ptr, size);
  return ptr;
}

void* TrackedAlignedAlloc(std::size_t size, std::align_val_t alignment) {
  std::size_t align = static_cast<std::size_t>(alignment);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* ptr = nullptr;
  if (::posix_memalign(&ptr, align, size != 0 ? size : 1) != 0) {
    return nullptr;
  }
  isum::obs::internal::RecordAlloc(ptr, size);
  return ptr;
}

void TrackedFree(void* ptr) {
  if (ptr == nullptr) return;
  isum::obs::internal::RecordFree(ptr);
  std::free(ptr);
}

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = TrackedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = TrackedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr = TrackedAlignedAlloc(size, alignment);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* ptr = TrackedAlignedAlloc(size, alignment);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return TrackedAlignedAlloc(size, alignment);
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return TrackedAlignedAlloc(size, alignment);
}

void operator delete(void* ptr) noexcept { TrackedFree(ptr); }
void operator delete[](void* ptr) noexcept { TrackedFree(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { TrackedFree(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { TrackedFree(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  TrackedFree(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  TrackedFree(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  TrackedFree(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  TrackedFree(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  TrackedFree(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  TrackedFree(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  TrackedFree(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  TrackedFree(ptr);
}

#endif  // ISUM_OBS_PROFILING
