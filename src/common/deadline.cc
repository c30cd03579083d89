#include "common/deadline.h"

#include <chrono>
#include <thread>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace isum {

namespace {

std::atomic<MonotonicClockFn> g_clock_override{nullptr};
std::atomic<SleepFn> g_sleep_override{nullptr};

Mutex g_ambient_mu;
TimeBudget g_ambient_budget ISUM_GUARDED_BY(g_ambient_mu);

obs::Counter* DeadlineExceededCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("deadline.exceeded");
  return counter;
}

}  // namespace

uint64_t MonotonicNanos() {
  const MonotonicClockFn fn = g_clock_override.load(std::memory_order_relaxed);
  if (fn != nullptr) return fn();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetMonotonicClockForTest(MonotonicClockFn fn) {
  g_clock_override.store(fn, std::memory_order_relaxed);
}

void SleepForNanos(uint64_t nanos) {
  const SleepFn fn = g_sleep_override.load(std::memory_order_relaxed);
  if (fn != nullptr) {
    fn(nanos);
    return;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
}

void SetSleepForTest(SleepFn fn) {
  g_sleep_override.store(fn, std::memory_order_relaxed);
}

namespace {
std::atomic<uint64_t> g_abnormal_stops{0};

obs::Counter* AbnormalStopCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("stop.abnormal");
  return counter;
}
}  // namespace

void NoteStopReason(StopReason reason) {
  if (reason == StopReason::kComplete) return;
  g_abnormal_stops.fetch_add(1, std::memory_order_relaxed);
  AbnormalStopCounter()->Add(1);
}

uint64_t AbnormalStopCount() {
  return g_abnormal_stops.load(std::memory_order_relaxed);
}

void ResetAbnormalStopCount() {
  g_abnormal_stops.store(0, std::memory_order_relaxed);
}

const char* StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kComplete:
      return "complete";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kFault:
      return "fault";
  }
  return "unknown";
}

Deadline Deadline::After(double seconds) {
  Deadline d;
  if (seconds <= 0.0) {
    d.nanos_ = MonotonicNanos();
    return d;
  }
  const double nanos = seconds * 1e9;
  // Saturate absurd budgets instead of overflowing into the past.
  if (nanos >= static_cast<double>(kNoDeadline) ||
      static_cast<uint64_t>(nanos) >= kNoDeadline - MonotonicNanos()) {
    return d;  // effectively unlimited
  }
  d.nanos_ = MonotonicNanos() + static_cast<uint64_t>(nanos);
  return d;
}

uint64_t Deadline::remaining_nanos() const {
  if (unlimited()) return kNoDeadline;
  const uint64_t now = MonotonicNanos();
  return now >= nanos_ ? 0 : nanos_ - now;
}

CancellationToken CancellationToken::Cancellable() {
  return CancellationToken(std::make_shared<State>());
}

CancellationToken CancellationToken::Child() const {
  auto state = std::make_shared<State>();
  state->parent = state_;
  return CancellationToken(std::move(state));
}

void CancellationToken::Cancel() const {
  ISUM_CHECK_MSG(state_ != nullptr,
                 "Cancel() on a null (non-cancellable) token");
  state_->cancelled.store(true, std::memory_order_relaxed);
}

Status TimeBudget::CheckCancelled() const {
  if (token_.cancelled()) {
    obs::journal::BudgetStop(StopReasonToString(StopReason::kCancelled));
    return Status::Cancelled("cancellation token fired");
  }
  if (deadline_.expired()) {
    DeadlineExceededCounter()->Add(1);
    obs::journal::BudgetStop(StopReasonToString(StopReason::kDeadline));
    return Status::DeadlineExceeded("time budget expired");
  }
  // Consumption timeline: BudgetTick rate-limits itself (one event per
  // ~250ms), so every cooperative poll can report without flooding.
  if (!deadline_.unlimited() && obs::journal::Enabled()) {
    obs::journal::BudgetTick(
        static_cast<double>(deadline_.remaining_nanos()) * 1e-9);
  }
  return Status::OK();
}

StopReason TimeBudget::ReasonFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return StopReason::kComplete;
    case StatusCode::kCancelled:
      return StopReason::kCancelled;
    case StatusCode::kDeadlineExceeded:
      return StopReason::kDeadline;
    default:
      return StopReason::kFault;
  }
}

void InstallAmbientBudget(const TimeBudget& budget) {
  MutexLock lock(g_ambient_mu);
  g_ambient_budget = budget;
}

TimeBudget AmbientBudget() {
  MutexLock lock(g_ambient_mu);
  return g_ambient_budget;
}

TimeBudget EffectiveBudget(const TimeBudget& local) {
  if (local.limited()) return local;
  return AmbientBudget();
}

}  // namespace isum
