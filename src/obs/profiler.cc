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
// glibc's dladdr1 hands out the link map, whose load bias maps a pc into
// the object's ELF symbol table.
#if defined(__GLIBC__) && __has_include(<link.h>)
#define ISUM_PROFILER_HAVE_SYMTAB 1
#include <fcntl.h>
#include <link.h>
#include <unistd.h>
#endif
#endif
#endif

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

#ifdef ISUM_PROFILER_HAVE_BACKTRACE
/// `symbol` demangled, or as it is when it is not a mangled C++ name.
std::string Demangle(const char* symbol) {
  int status = -1;
  char* demangled = abi::__cxa_demangle(symbol, nullptr, nullptr, &status);
  std::string name = status == 0 && demangled != nullptr ? demangled : symbol;
  std::free(demangled);
  return name;
}
#endif

#ifdef ISUM_PROFILER_HAVE_SYMTAB
/// A named code range, [start, end) in the object's own virtual addresses
/// (a pc minus the object's load bias).
struct CodeSymbol {
  uintptr_t start;
  uintptr_t end;
  std::string name;
};

/// Reads `size` bytes at `offset` of a regular file into `out`.
bool ReadAt(int fd, uint64_t offset, size_t size, void* out) {
  return pread(fd, out, size, static_cast<off_t>(offset)) ==
         static_cast<ssize_t>(size);
}

/// The code symbols of the ELF file at `path`, sorted by start: every
/// STT_FUNC entry of its .symtab (none in a stripped object) and each of
/// its PLT sections as `<object>@plt`, since the stubs through which it
/// calls shared libraries have no symbol. Empty when unreadable.
std::vector<CodeSymbol> ReadCodeSymbols(const std::string& path,
                                        const std::string& object) {
  std::vector<CodeSymbol> symbols;
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return symbols;
  ElfW(Ehdr) header{};
  std::vector<ElfW(Shdr)> sections;
  if (ReadAt(fd, 0, sizeof(header), &header) &&
      std::memcmp(header.e_ident, ELFMAG, SELFMAG) == 0 &&
      header.e_shentsize == sizeof(ElfW(Shdr))) {
    sections.resize(header.e_shnum);
    if (!ReadAt(fd, header.e_shoff, sections.size() * sizeof(ElfW(Shdr)),
                sections.data())) {
      sections.clear();
    }
  }
  // A section's bytes as a string ("" when out of range or unreadable).
  auto contents = [&](size_t index) {
    std::string bytes;
    if (index >= sections.size()) return bytes;
    bytes.resize(sections[index].sh_size);
    if (!ReadAt(fd, sections[index].sh_offset, bytes.size(), bytes.data())) {
      bytes.clear();
    }
    return bytes;
  };
  const std::string section_names = contents(header.e_shstrndx);
  for (const ElfW(Shdr)& section : sections) {
    if ((section.sh_flags & SHF_EXECINSTR) != 0 &&
        section.sh_name < section_names.size() &&
        section_names.compare(section.sh_name, 4, ".plt") == 0) {
      symbols.push_back(CodeSymbol{section.sh_addr,
                                   section.sh_addr + section.sh_size,
                                   object + "@plt"});
    }
    if (section.sh_type != SHT_SYMTAB ||
        section.sh_entsize != sizeof(ElfW(Sym))) {
      continue;
    }
    const std::string entries = contents(&section - sections.data());
    const std::string names = contents(section.sh_link);
    for (size_t at = 0; at + sizeof(ElfW(Sym)) <= entries.size();
         at += sizeof(ElfW(Sym))) {
      ElfW(Sym) entry;
      std::memcpy(&entry, entries.data() + at, sizeof(entry));
      if (ELF64_ST_TYPE(entry.st_info) == STT_FUNC && entry.st_size != 0 &&
          entry.st_shndx != SHN_UNDEF && entry.st_name < names.size()) {
        symbols.push_back(CodeSymbol{entry.st_value,
                                     entry.st_value + entry.st_size,
                                     names.c_str() + entry.st_name});
      }
    }
  }
  close(fd);
  std::sort(symbols.begin(), symbols.end(),
            [](const CodeSymbol& a, const CodeSymbol& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.name < b.name;
            });
  return symbols;
}
#endif  // ISUM_PROFILER_HAVE_SYMTAB

/// Names the pcs of one Stop(), caching each pc's name and each object's
/// code symbols. A pc is named by its dynamic symbol (dladdr; executables
/// export theirs via CMAKE_ENABLE_EXPORTS in the top-level CMakeLists),
/// else by the enclosing code symbol of its object's ELF file (the main
/// executable read through /proc/self/exe), which names functions with
/// internal linkage; both demangled. A pc in an object without .symtab,
/// or outside every code symbol, prints as
/// `<object basename>+0x<offset into the object>`, which ASLR does not
/// move, so profiles of two runs still match it. Bare hex only when no
/// loaded object contains the pc.
class Symbolizer {
 public:
  const std::string& Name(void* pc) {
    auto it = names_.find(pc);
    if (it == names_.end()) it = names_.emplace(pc, Resolve(pc)).first;
    return it->second;
  }

 private:
  std::string Resolve(void* pc) {
#ifdef ISUM_PROFILER_HAVE_BACKTRACE
    Dl_info info;
#ifdef ISUM_PROFILER_HAVE_SYMTAB
    link_map* map = nullptr;
    const int found = dladdr1(pc, &info, reinterpret_cast<void**>(&map),
                              RTLD_DL_LINKMAP);
#else
    const int found = dladdr(pc, &info);
#endif
    if (found != 0 && info.dli_sname != nullptr) {
      return Demangle(info.dli_sname);
    }
    if (found != 0 && info.dli_fname != nullptr && info.dli_fbase != nullptr) {
      const char* slash = std::strrchr(info.dli_fname, '/');
      const std::string object = slash == nullptr ? info.dli_fname : slash + 1;
#ifdef ISUM_PROFILER_HAVE_SYMTAB
      if (const CodeSymbol* symbol = Enclosing(map, object, pc)) {
        return Demangle(symbol->name.c_str());
      }
#endif
      char offset[32];
      std::snprintf(offset, sizeof(offset), "+0x%llx",
                    static_cast<unsigned long long>(
                        reinterpret_cast<uintptr_t>(pc) -
                        reinterpret_cast<uintptr_t>(info.dli_fbase)));
      return object + offset;
    }
#endif
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(
                      reinterpret_cast<uintptr_t>(pc)));
    return buf;
  }

#ifdef ISUM_PROFILER_HAVE_SYMTAB
  /// The code symbol of `map`'s object (named `object`) containing `pc`,
  /// or null.
  const CodeSymbol* Enclosing(const link_map* map, const std::string& object,
                              void* pc) {
    if (map == nullptr) return nullptr;
    // The main executable's link map has an empty name.
    const std::string path =
        map->l_name[0] != '\0' ? map->l_name : "/proc/self/exe";
    auto table = tables_.find(path);
    if (table == tables_.end()) {
      table = tables_.emplace(path, ReadCodeSymbols(path, object)).first;
    }
    const std::vector<CodeSymbol>& symbols = table->second;
    const uintptr_t vaddr = reinterpret_cast<uintptr_t>(pc) - map->l_addr;
    auto next = std::upper_bound(
        symbols.begin(), symbols.end(), vaddr,
        [](uintptr_t v, const CodeSymbol& symbol) { return v < symbol.start; });
    if (next == symbols.begin() || vaddr >= std::prev(next)->end) {
      return nullptr;
    }
    return &*std::prev(next);
  }

  /// By object path.
  std::unordered_map<std::string, std::vector<CodeSymbol>> tables_;
#endif
  std::unordered_map<void*, std::string> names_;
};

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

  itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  const long interval_usec =
      std::max(1L, 1'000'000L / static_cast<long>(options_.sample_hz));
  timer.it_interval.tv_usec = interval_usec;
  timer.it_value.tv_usec = interval_usec;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
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
  Symbolizer symbolizer;
  std::unordered_map<std::string, size_t> stack_index;
  for (uint64_t i = 0; i < captured; ++i) {
    const RawSample& sample = buffer->samples[i];
    if (sample.phase != nullptr) ++dump.attributed;
    // Innermost-first from backtrace(); trim our handler, then reverse to
    // outermost-first for the collapsed/flamegraph convention.
    std::vector<std::string> names;
    const int num_frames = std::clamp(sample.num_frames, 0, kMaxFrames);
    names.reserve(static_cast<size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f) {
      names.push_back(symbolizer.Name(sample.pcs[f]));
    }
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
