#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>

#include "common/jsonl.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace isum::obs {

namespace {

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

/// `s` as a JSON string literal, quotes included.
void AppendQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  *out += JsonEscape(s);
  out->push_back('"');
}

/// Nanoseconds as microseconds with nanosecond precision (Chrome's unit).
void AppendMicros(std::string* out, uint64_t nanos) {
  AppendF(out, "%" PRIu64 ".%03" PRIu64, nanos / 1000, nanos % 1000);
}

/// `args` as JSON object members, each led by a comma.
void AppendArgs(std::string* out, const SpanArg* args, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const SpanArg& arg = args[i];
    if (arg.key == nullptr) continue;
    out->push_back(',');
    AppendQuoted(out, arg.key);
    out->push_back(':');
    switch (arg.kind) {
      case SpanArg::Kind::kInt:
        AppendF(out, "%" PRId64, arg.int_value);
        break;
      case SpanArg::Kind::kDouble:
        AppendF(out, "%.9g", arg.double_value);
        break;
      case SpanArg::Kind::kString:
        AppendQuoted(out, arg.string_value != nullptr ? arg.string_value : "");
        break;
    }
  }
}

/// One `"key":value` member of a counter event's args, led by a comma
/// unless it is the first. Doubles print in their shortest exact form, so a
/// reader gets back the value that was written.
void AppendMetric(std::string* out, std::string_view key, double value) {
  if (!std::isfinite(value)) return;
  if (out->back() != '{') out->push_back(',');
  AppendQuoted(out, key);
  out->push_back(':');
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, result.ptr);
}

void AppendMetric(std::string* out, std::string_view key, uint64_t value) {
  if (out->back() != '{') out->push_back(',');
  AppendQuoted(out, key);
  AppendF(out, ":%" PRIu64, value);
}

/// Common head of every event: `{"ph":"<ph>","pid":1,"tid":<tid>,"name":`.
void AppendEventHead(std::string* out, const char* ph, uint32_t tid,
                     const char* name) {
  AppendF(out, "{\"ph\":\"%s\",\"pid\":1,\"tid\":%u,\"name\":", ph, tid);
  AppendQuoted(out, name);
}

std::string ThreadNameEvent(uint32_t tid, const std::string& name) {
  std::string out;
  AppendEventHead(&out, "M", tid, "thread_name");
  out += ",\"args\":{\"name\":";
  if (name.empty()) {
    AppendQuoted(&out, "thread-" + std::to_string(tid));
  } else {
    AppendQuoted(&out, name);
  }
  out += "}}";
  return out;
}

std::string SpanEvent(const SpanRecord& span) {
  std::string out;
  AppendEventHead(&out, "X", span.tid, span.name);
  out += ",\"cat\":\"isum\",\"ts\":";
  AppendMicros(&out, span.start_nanos);
  out += ",\"dur\":";
  AppendMicros(&out, span.dur_nanos);
  AppendF(&out, ",\"args\":{\"depth\":%u", span.depth);
  AppendArgs(&out, span.args.data(),
             std::min<size_t>(span.num_args, SpanRecord::kMaxArgs));
  out += "}}";
  return out;
}

}  // namespace

std::string ChromeTraceJson(const TraceDump& dump) {
  std::string out = "[\n";
  bool first = true;
  auto append = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };
  for (uint32_t tid = 0; tid < dump.thread_names.size(); ++tid) {
    append(ThreadNameEvent(tid, dump.thread_names[tid]));
  }
  for (const SpanRecord& span : dump.spans) append(SpanEvent(span));
  out += "\n]\n";
  return out;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

uint64_t Tracer::NowNanos() const {
  const ClockFn fn = clock_.load(std::memory_order_relaxed);
  if (fn != nullptr) return fn();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Tracer::SessionNanos() const {
  const uint64_t now = NowNanos();
  const uint64_t start = session_start_nanos_.load(std::memory_order_relaxed);
  return now >= start ? now - start : 0;
}

Tracer::ThreadState* Tracer::CurrentThreadState() {
  // One registration per thread; the pointer stays valid for the tracer's
  // lifetime (the Tracer singleton is never destroyed).
  static thread_local ThreadState* tls_state = nullptr;
  if (tls_state == nullptr) {
    auto state = std::make_unique<ThreadState>();
    MutexLock lock(mu_);
    state->tid = static_cast<uint32_t>(threads_.size());
    tls_state = state.get();
    threads_.push_back(std::move(state));
  }
  return tls_state;
}

void Tracer::Enable() {
  MutexLock lock(mu_);
  for (auto& thread : threads_) {
    MutexLock thread_lock(thread->mu);
    thread->spans.clear();
    thread->depth = 0;
  }
  session_start_nanos_.store(NowNanos(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

bool Tracer::Open(const std::string& path, const std::string& label) {
  // fopen before any lock: isum-lock-scope forbids I/O setup in a critical
  // section, and a failed open must leave an open file intact.
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  if (writing()) Close();
  Enable();
  std::string head = "[\n";
  AppendEventHead(&head, "M", 0, "process_name");
  head += ",\"args\":{\"name\":";
  AppendQuoted(&head, label);
  head += ",\"schema\":";
  AppendQuoted(&head, kDecisionSchema);
  head += "}}";
  last_period_nanos_.store(0, std::memory_order_relaxed);
  last_change_key_.store(nullptr, std::memory_order_relaxed);
  {
    MutexLock lock(file_mu_);
    file_ = file;
    seq_ = 0;
    write_failed_ = std::fwrite(head.data(), 1, head.size(), file_) !=
                        head.size() ||
                    std::fflush(file_) != 0;
  }
  writing_.store(true, std::memory_order_relaxed);
  return true;
}

void Tracer::WriteEventLocked(const std::string& event) {
  if (std::fwrite(",\n", 1, 2, file_) != 2 ||
      std::fwrite(event.data(), 1, event.size(), file_) != event.size()) {
    write_failed_ = true;
  }
}

TraceFileStats Tracer::Close() {
  TraceFileStats stats;
  if (!writing()) return stats;
  writing_.store(false, std::memory_order_relaxed);
  Disable();
  const TraceDump dump = Drain();
  MutexLock lock(file_mu_);
  if (file_ == nullptr) return stats;
  for (uint32_t tid = 0; tid < dump.thread_names.size(); ++tid) {
    WriteEventLocked(ThreadNameEvent(tid, dump.thread_names[tid]));
  }
  for (const SpanRecord& span : dump.spans) WriteEventLocked(SpanEvent(span));
  if (std::fwrite("\n]\n", 1, 3, file_) != 3) write_failed_ = true;
  if (std::fclose(file_) != 0) write_failed_ = true;
  file_ = nullptr;
  stats.spans = dump.spans.size();
  stats.instants = seq_;
  stats.ok = !write_failed_;
  return stats;
}

void Tracer::Instant(const char* name, const SpanArg* args, size_t num_args,
                     bool flush) {
  if (!writing()) return;
  const uint32_t tid = CurrentThreadState()->tid;
  std::string head;
  AppendEventHead(&head, "i", tid, name);
  head += ",\"cat\":\"decision\",\"ts\":";
  AppendMicros(&head, SessionNanos());
  head += ",\"args\":{\"seq\":";
  std::string tail;
  AppendArgs(&tail, args, num_args);
  tail += "}}";
  MutexLock lock(file_mu_);
  if (file_ == nullptr) return;
  // seq is assigned under the lock, so file order and seq order agree.
  WriteEventLocked(head + std::to_string(seq_++) + tail);
  if (flush && std::fflush(file_) != 0) write_failed_ = true;
}

bool Tracer::WriteMetrics(const MetricsSnapshot& snapshot) {
  if (!writing()) return false;
  std::string event;
  AppendEventHead(&event, "C", CurrentThreadState()->tid, kMetricsEvent);
  event += ",\"ts\":";
  AppendMicros(&event, SessionNanos());
  event += ",\"args\":{";
  for (const auto& [name, value] : snapshot.counters) {
    AppendMetric(&event, name, value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    AppendMetric(&event, name, value);
  }
  for (const HistogramSample& h : snapshot.histograms) {
    AppendMetric(&event, h.name + ".count", h.count);
    AppendMetric(&event, h.name + ".sum", h.sum);
    AppendMetric(&event, h.name + ".p50", h.p50);
    AppendMetric(&event, h.name + ".p95", h.p95);
    AppendMetric(&event, h.name + ".p99", h.p99);
  }
  event += "}}";
  MutexLock lock(file_mu_);
  if (file_ == nullptr) return false;
  WriteEventLocked(event);
  if (std::fflush(file_) != 0) write_failed_ = true;
  return !write_failed_;
}

bool Tracer::ClaimPeriod(uint64_t period_nanos) {
  const uint64_t now = NowNanos();
  uint64_t last = last_period_nanos_.load(std::memory_order_relaxed);
  // 0 means "not yet claimed in this file" (Open resets it).
  if (last != 0 && now - last < period_nanos) return false;
  return last_period_nanos_.compare_exchange_strong(
      last, now, std::memory_order_relaxed);
}

bool Tracer::ClaimChange(const char* key) {
  const char* last = last_change_key_.load(std::memory_order_relaxed);
  if (last == key) return false;
  return last_change_key_.compare_exchange_strong(last, key,
                                                  std::memory_order_relaxed);
}

TraceDump Tracer::Drain() {
  TraceDump dump;
  MutexLock lock(mu_);
  dump.thread_names.resize(threads_.size());
  for (auto& thread : threads_) {
    dump.thread_names[thread->tid] = thread->name;
    MutexLock thread_lock(thread->mu);
    dump.spans.insert(dump.spans.end(), thread->spans.begin(),
                      thread->spans.end());
    thread->spans.clear();
  }
  std::sort(dump.spans.begin(), dump.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_nanos != b.start_nanos) {
                return a.start_nanos < b.start_nanos;
              }
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.depth < b.depth;
            });
  return dump;
}

void Tracer::SetCurrentThreadName(std::string name) {
  ThreadState* state = CurrentThreadState();
  MutexLock lock(mu_);
  state->name = std::move(name);
}

void TraceSpan::Begin(Tracer& tracer, const char* name) {
  state_ = tracer.CurrentThreadState();
  name_ = name;
  depth_ = state_->depth++;
  // Publish this span as the thread's innermost phase for the sampling
  // profiler (obs/profiler.h).
  internal::PushPhase(name_);
  start_raw_nanos_ = tracer.NowNanos();
  const uint64_t session_start =
      tracer.session_start_nanos_.load(std::memory_order_relaxed);
  start_nanos_ =
      start_raw_nanos_ >= session_start ? start_raw_nanos_ - session_start : 0;
}

void TraceSpan::End() {
  internal::PopPhase();
  Tracer& tracer = Tracer::Global();
  const uint64_t end = tracer.NowNanos();
  SpanRecord record;
  record.name = name_;
  record.tid = state_->tid;
  record.depth = depth_;
  record.start_nanos = start_nanos_;
  record.dur_nanos = end >= start_raw_nanos_ ? end - start_raw_nanos_ : 0;
  record.num_args = num_args_;
  record.args = args_;
  state_->depth--;
  MutexLock lock(state_->mu);
  state_->spans.push_back(record);
}

}  // namespace isum::obs
