#ifndef ISUM_OBS_JOURNAL_H_
#define ISUM_OBS_JOURNAL_H_

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "obs/trace.h"

namespace isum::obs {

/// Decision provenance: the typed events that say *why* a run did what it
/// did. Which query won each greedy round and by what margin, which index
/// each enumeration round added, what the budget machinery did to the
/// result, and how estimated benefit compared to evaluated benefit.
///
/// Each event is an instant event ("ph":"i", obs::InstantEvent) in the
/// --trace= file, on the tracer's clock next to the spans. Its `name`
/// is the event type and its `args` hold a dense 0-based `seq` (a gap means
/// a damaged file) and the fields below. The file's process_name metadata
/// event carries the run label and the vocabulary tag kDecisionSchema.
/// `tracecat explain <trace.json>` reconstructs the run from the events
/// (docs/OBSERVABILITY.md documents the schema and a walkthrough).
///
/// Cost model: every emitter starts with one relaxed atomic load
/// (Enabled()) and returns at once when no trace file is open. Emitters
/// sit at per-round/per-decision frequency (k events per compression, one
/// per enumeration round), never inside the O(n²) inner loops. Events that
/// mark an abnormal stop, a fault or a checkpoint flush the file at once,
/// so a run that is killed still leaves them on disk (docs/ROBUSTNESS.md).
///
/// Determinism: recording must never influence control flow — callers may
/// not branch on Enabled() beyond skipping argument computation, and tests
/// assert only on event contents that are deterministic for a fixed
/// workload (ids, rounds, hashes), never on timestamps.
namespace journal {

/// One relaxed load: a trace file is open and events are being written.
inline bool Enabled() { return Tracer::Global().writing(); }

namespace internal {

/// Minimum tracer-clock distance between two budget_tick events. Budget
/// polls fire per round *and* per what-if call; the timeline only needs
/// coarse consumption samples.
inline constexpr uint64_t kBudgetTickPeriodNanos = 250'000'000;  // 250ms

inline bool Abnormal(const char* stop_reason) {
  return std::strcmp(stop_reason, "complete") != 0;
}

/// A 64-bit hash as the 16-hex-digit string events carry (JSON numbers
/// cannot hold 64 bits exactly).
struct Hex {
  explicit Hex(uint64_t v) {
    std::snprintf(text, sizeof(text), "%016" PRIx64, v);
  }
  char text[17];
};

}  // namespace internal

/// Greedy selection started: `n_queries` inputs, target size `k`.
inline void CompressBegin(uint64_t n_queries, uint64_t k,
                          const char* algorithm) {
  if (!Enabled()) return;
  InstantEvent("compress_begin", /*flush=*/false)
      .Arg("n", n_queries)
      .Arg("k", k)
      .Arg("algorithm", algorithm);
}

/// Round `round` chose `query` with marginal `benefit`. `gap` is the
/// margin over the runner-up candidate (-1 when the round had no
/// runner-up); `eligible` the candidate count.
inline void SelectRound(uint64_t round, uint64_t query, double benefit,
                        double gap, uint64_t eligible) {
  if (!Enabled()) return;
  InstantEvent("select", /*flush=*/false)
      .Arg("round", round)
      .Arg("query", query)
      .Arg("benefit", benefit)
      .Arg("gap", gap)
      .Arg("eligible", eligible);
}

/// Algorithm 2, line 12: every remaining query was fully covered, so
/// unselected features were reset to their original weights.
inline void FeatureReset(uint64_t selected_so_far) {
  if (!Enabled()) return;
  InstantEvent("feature_reset", /*flush=*/false)
      .Arg("selected", selected_so_far);
}

/// Selection finished: `selection_hash` is SelectionOrderHash() over the
/// chosen ids in order (tracecat explain recomputes and verifies it).
inline void CompressEnd(uint64_t selected, uint64_t selection_hash,
                        double benefit_sum, const char* stop_reason) {
  if (!Enabled()) return;
  const internal::Hex hash(selection_hash);
  InstantEvent("compress_end", internal::Abnormal(stop_reason))
      .Arg("selected", selected)
      .Arg("selection_hash", hash.text)
      .Arg("benefit_sum", benefit_sum)
      .Arg("stop_reason", stop_reason);
}

/// Enumeration round `round` evaluated `candidates` configurations and
/// added pool index `best_index` with `best_improvement`. `cache_hits` /
/// `optimizer_calls` / `skipped` (requests for an index the query cannot
/// use) are this round's what-if deltas.
inline void EnumRound(uint64_t round, uint64_t candidates, uint64_t best_index,
                      double best_improvement, uint64_t cache_hits,
                      uint64_t optimizer_calls, uint64_t skipped) {
  if (!Enabled()) return;
  InstantEvent("enum_round", /*flush=*/false)
      .Arg("round", round)
      .Arg("candidates", candidates)
      .Arg("best_index", best_index)
      .Arg("improvement", best_improvement)
      .Arg("cache_hits", cache_hits)
      .Arg("optimizer_calls", optimizer_calls)
      .Arg("skipped", skipped);
}

inline void EnumEnd(uint64_t config_size, double initial_cost,
                    double final_cost, const char* stop_reason) {
  if (!Enabled()) return;
  InstantEvent("enum_end", internal::Abnormal(stop_reason))
      .Arg("indexes", config_size)
      .Arg("initial_cost", initial_cost)
      .Arg("final_cost", final_cost)
      .Arg("stop_reason", stop_reason);
}

/// A transient failure at `site` is being retried (attempt is 1-based).
inline void Retry(const char* site, uint64_t attempt, uint64_t backoff_nanos) {
  if (!Enabled()) return;
  InstantEvent("retry", /*flush=*/false)
      .Arg("site", site)
      .Arg("attempt", attempt)
      .Arg("backoff_us", static_cast<double>(backoff_nanos) / 1e3);
}

/// A failure at `site` was surfaced to the caller (persistent or
/// non-retryable); `code` is the Status code name.
inline void Fault(const char* site, const char* code) {
  if (!Enabled()) return;
  InstantEvent("fault", /*flush=*/true).Arg("site", site).Arg("code", code);
}

/// Budget consumption timeline: at most one event per 250ms of tracer-clock
/// time, so budget polls can call this freely.
inline void BudgetTick(double remaining_seconds) {
  if (!Enabled()) return;
  if (!Tracer::Global().ClaimPeriod(internal::kBudgetTickPeriodNanos)) return;
  InstantEvent("budget_tick", /*flush=*/false)
      .Arg("remaining_s", remaining_seconds);
}

/// The budget stopped the run. Consecutive stops with the same `reason`
/// write one event: stages keep polling an expired budget, but the
/// transition is the event. `reason` is identity-compared, so pass
/// StopReasonToString() results.
inline void BudgetStop(const char* reason) {
  if (!Enabled()) return;
  if (!Tracer::Global().ClaimChange(reason)) return;
  InstantEvent("budget_stop", /*flush=*/true).Arg("reason", reason);
}

/// A checkpoint epoch was written: `phase` is "compress" or "enum",
/// `rounds` the rounds captured, `bytes` the serialized image size.
/// Flushed at once: the event is the on-disk proof that the epoch it names
/// was durable first.
inline void CkptWrite(const char* phase, uint64_t epoch, uint64_t rounds,
                      uint64_t bytes) {
  if (!Enabled()) return;
  InstantEvent("ckpt_write", /*flush=*/true)
      .Arg("phase", phase)
      .Arg("epoch", epoch)
      .Arg("rounds", rounds)
      .Arg("bytes", bytes);
}

/// A run resumed from a checkpoint: `restored` rounds were replayed and
/// `prefix_hash` is SelectionOrderHash() over the restored prefix (or 0
/// for enumeration restores). `done` is 1 when the checkpointed run had
/// already finished. tracecat explain seeds its incremental hash from
/// this event so resumed runs still verify.
inline void CkptRestore(const char* phase, uint64_t epoch, uint64_t restored,
                        uint64_t prefix_hash, uint64_t done) {
  if (!Enabled()) return;
  const internal::Hex hash(prefix_hash);
  InstantEvent("ckpt_restore", /*flush=*/true)
      .Arg("phase", phase)
      .Arg("epoch", epoch)
      .Arg("restored", restored)
      .Arg("prefix_hash", hash.text)
      .Arg("done", done);
}

/// Post-eval attribution for one selected query: the benefit selection
/// estimated vs. the cost reduction the recommended configuration
/// realized on that query.
inline void Attribution(uint64_t query, double weight,
                        double estimated_benefit, double realized_benefit) {
  if (!Enabled()) return;
  InstantEvent("attribution", /*flush=*/false)
      .Arg("query", query)
      .Arg("weight", weight)
      .Arg("estimated", estimated_benefit)
      .Arg("realized", realized_benefit);
}

inline void PipelineEnd(const char* algorithm, uint64_t k,
                        double improvement_percent, const char* stop_reason) {
  if (!Enabled()) return;
  InstantEvent("pipeline_end", internal::Abnormal(stop_reason))
      .Arg("algorithm", algorithm)
      .Arg("k", k)
      .Arg("improvement_percent", improvement_percent)
      .Arg("stop_reason", stop_reason);
}

}  // namespace journal

/// FNV-1a over a selection order: equal selections <=> equal hashes. The
/// single definition shared by compress_end events, the bench drivers'
/// recorded `selection_hash`, and tracecat explain's verification.
inline uint64_t SelectionOrderHash(const size_t* selected, size_t count) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < count; ++i) {
    h ^= static_cast<uint64_t>(selected[i]);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace isum::obs

#endif  // ISUM_OBS_JOURNAL_H_
