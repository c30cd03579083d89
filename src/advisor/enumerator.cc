#include "advisor/enumerator.h"

#include <cstring>
#include <memory>
#include <optional>

#include "common/fault.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace isum::advisor {

namespace {

/// Evaluation of one candidate against the current per-query costs. When
/// `status` is non-OK the evaluation is incomplete and must not be applied.
struct CandidateEvaluation {
  double improvement = 0.0;
  Status status;
};

/// Costs `candidate` added to `base_config` for the queries in `on_table`
/// (those referencing the candidate's table, in query order) into `costs`,
/// aligned with `on_table`, and sums the weighted improvement over
/// `current_cost` in that order. `prepared` is aligned with `queries`.
///
/// Delta costing: when `costs` still holds the candidate's answers from the
/// previous round, only the queries flagged in `recost` (those referencing
/// the previous winner's table) are re-costed; the others are carried over.
/// That is exact because the optimizer reads a configuration only through
/// the indexes on the query's own tables (engine/optimizer.h), so for a
/// query that does not reference the winner's table the trial
/// configurations of the two rounds look the same, in the same order.
/// Carried-over answers are counted as what-if cache hits. The trial
/// configuration is built only once some query needs re-costing. On failure
/// `costs` is cleared, so a candidate is never resumed from a partial
/// vector.
CandidateEvaluation EvaluateCandidate(
    engine::WhatIfOptimizer& what_if,
    const std::vector<WeightedQuery>& queries,
    const std::vector<engine::PreparedQuery>& prepared,
    const std::vector<size_t>& on_table,
    const engine::Configuration& base_config, const engine::Index& candidate,
    const std::vector<double>& current_cost, const std::vector<bool>& recost,
    std::vector<double>& costs, const TimeBudget& budget) {
  std::optional<engine::Configuration> trial;
  const bool carry = costs.size() == on_table.size();
  if (!carry) costs.assign(on_table.size(), 0.0);
  CandidateEvaluation out;
  uint64_t carried = 0;
  for (size_t j = 0; j < on_table.size(); ++j) {
    const size_t qi = on_table[j];
    if (carry && !recost[qi]) {
      ++carried;
    } else {
      if (!trial.has_value()) {
        trial.emplace(base_config);
        trial->Add(candidate);
      }
      const StatusOr<double> c = what_if.TryCost(prepared[qi], *trial, budget);
      if (!c.ok()) {
        costs.clear();
        out.status = c.status();
        break;
      }
      costs[j] = *c;
    }
    out.improvement += queries[qi].weight * (current_cost[qi] - costs[j]);
  }
  what_if.CountCarriedOver(carried);
  return out;
}

/// ---- Enumeration checkpointing ----
///
/// Section layout of the `.enum` checkpoint (container format in
/// common/checkpoint.h):
///   meta     fingerprint, done, stop_reason, configurations_explored,
///            initial_cost bits, total_cost bits
///   winners  pool indices of the added indexes, in round order
///   costs    per-query current cost under the checkpointed configuration
///
/// Restore replays the winner sequence instead of serializing the
/// Configuration object: pool indices plus the bit-exact per-query costs
/// fully determine the derived state, and the replay is O(rounds). The
/// stored initial cost must match the resumed run's freshly computed one
/// bit-for-bit before anything is applied — that proves the cost model,
/// stats and workload are the ones the checkpoint came from. Candidates'
/// carried-over costs are not stored: the first round after a resume
/// re-costs every candidate in full. Sections 4 and 5 of older epochs held
/// a what-if memo; they are ignored.
constexpr uint32_t kEnumMetaSection = 1;
constexpr uint32_t kEnumWinnersSection = 2;
constexpr uint32_t kEnumCostsSection = 3;

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Identity of one enumeration work unit: the weighted workload, the
/// candidate pool (by canonical index definition, order-sensitive) and the
/// search constraints. Thread count is deliberately excluded — enumeration
/// is bit-identical across thread counts, so a checkpoint written at one
/// concurrency resumes at another.
uint64_t EnumerationFingerprint(const std::vector<WeightedQuery>& queries,
                                const std::vector<engine::Index>& pool,
                                int max_indexes,
                                uint64_t storage_budget_bytes) {
  uint64_t h = HashBytes("enum");
  h = HashCombine(h, queries.size());
  for (const WeightedQuery& wq : queries) {
    h = HashCombine(h, DoubleBits(wq.weight));
  }
  h = HashCombine(h, pool.size());
  for (const engine::Index& index : pool) {
    h = HashCombine(h, HashBytes(index.CanonicalKey()));
  }
  h = HashCombine(h, static_cast<uint64_t>(max_indexes));
  h = HashCombine(h, storage_budget_bytes);
  return h;
}

struct EnumSnapshot {
  uint64_t fingerprint = 0;
  uint64_t done = 0;
  uint64_t stop_reason = 0;
  uint64_t configurations_explored = 0;
  uint64_t initial_cost_bits = 0;
  uint64_t total_cost_bits = 0;
  std::vector<uint64_t> winners;
  std::vector<double> costs;
};

void EncodeEnumSnapshot(const EnumSnapshot& snapshot,
                        CheckpointWriter* writer) {
  writer->BeginSection(kEnumMetaSection);
  writer->AppendU64(snapshot.fingerprint);
  writer->AppendU64(snapshot.done);
  writer->AppendU64(snapshot.stop_reason);
  writer->AppendU64(snapshot.configurations_explored);
  writer->AppendU64(snapshot.initial_cost_bits);
  writer->AppendU64(snapshot.total_cost_bits);
  writer->EndSection();
  writer->BeginSection(kEnumWinnersSection);
  writer->AppendU64Vector(snapshot.winners);
  writer->EndSection();
  writer->BeginSection(kEnumCostsSection);
  writer->AppendF64Vector(snapshot.costs);
  writer->EndSection();
}

/// Newest valid epoch decoded into an EnumSnapshot, or kNotFound when no
/// usable checkpoint exists (absent lineage, fingerprint mismatch,
/// structurally invalid payload). Callers must still validate the initial
/// cost bits against a fresh costing pass before applying anything.
StatusOr<EnumSnapshot> LoadEnumSnapshot(CheckpointStore& store,
                                        uint64_t expected_fingerprint) {
  StatusOr<CheckpointReader> reader = store.LoadLatest();
  if (!reader.ok()) return reader.status();
  EnumSnapshot snapshot;
  StatusOr<CheckpointCursor> meta = reader->Section(kEnumMetaSection);
  if (!meta.ok()) return meta.status();
  ISUM_ASSIGN_OR_RETURN(snapshot.fingerprint, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.done, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.stop_reason, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.configurations_explored, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.initial_cost_bits, meta->ReadU64());
  ISUM_ASSIGN_OR_RETURN(snapshot.total_cost_bits, meta->ReadU64());
  if (snapshot.fingerprint != expected_fingerprint) {
    return Status::NotFound("checkpoint fingerprint mismatch");
  }
  if (snapshot.stop_reason > static_cast<uint64_t>(StopReason::kFault)) {
    return Status::ParseError("checkpoint stop_reason out of range");
  }
  StatusOr<CheckpointCursor> winners = reader->Section(kEnumWinnersSection);
  if (!winners.ok()) return winners.status();
  ISUM_ASSIGN_OR_RETURN(snapshot.winners, winners->ReadU64Vector());
  StatusOr<CheckpointCursor> costs = reader->Section(kEnumCostsSection);
  if (!costs.ok()) return costs.status();
  ISUM_ASSIGN_OR_RETURN(snapshot.costs, costs->ReadF64Vector());
  return snapshot;
}

}  // namespace

EnumerationResult GreedyEnumerate(
    engine::WhatIfOptimizer& what_if,
    const std::vector<WeightedQuery>& queries,
    const std::vector<engine::Index>& pool, int max_indexes,
    uint64_t storage_budget_bytes, const catalog::Catalog& catalog,
    const TimeBudget& budget, int num_threads,
    const CheckpointConfig& ckpt) {
  ISUM_TRACE_SPAN_VAR(span, "advisor/enumerate");
  span.Arg("pool", static_cast<uint64_t>(pool.size()))
      .Arg("max_indexes", max_indexes)
      .Arg("queries", static_cast<uint64_t>(queries.size()));
  static obs::Counter* const rounds_counter =
      obs::MetricsRegistry::Global().GetCounter("advisor.enumeration_rounds");
  static obs::Counter* const explored_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "advisor.configurations_explored");
  // Process-wide what-if counters, sampled per round so the enum_round
  // events can attribute this round's cache hits and optimizer calls.
  static obs::Counter* const whatif_calls_counter =
      obs::MetricsRegistry::Global().GetCounter("whatif.optimizer_calls");
  static obs::Counter* const whatif_hits_counter =
      obs::MetricsRegistry::Global().GetCounter("whatif.cache_hits");
  EnumerationResult result;

  // Every query is costed under many configurations, so each is prepared
  // once; worker threads share the prepared queries read-only.
  std::vector<engine::PreparedQuery> prepared;
  prepared.reserve(queries.size());
  for (const WeightedQuery& wq : queries) {
    prepared.push_back(engine::Optimizer::Prepare(*wq.query));
  }

  // Per-query current cost under the growing (initially empty) configuration.
  // Initial costing is exempt from the deadline (bounded work, and without
  // it a truncated result would report meaningless zero costs); it still
  // honors cancellation and fault handling.
  const TimeBudget initial_budget(Deadline(), budget.token());
  std::vector<double> current_cost(queries.size());
  double total_cost = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const StatusOr<double> c =
        what_if.TryCost(prepared[i], result.configuration, initial_budget);
    if (!c.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(c.status());
      result.initial_cost = total_cost;
      result.final_cost = total_cost;
      NoteStopReason(result.stop_reason);
      obs::journal::EnumEnd(result.configuration.size(), result.initial_cost,
                            result.final_cost,
                            StopReasonToString(result.stop_reason));
      return result;
    }
    current_cost[i] = *c;
    total_cost += queries[i].weight * current_cost[i];
  }
  result.initial_cost = total_cost;

  std::unique_ptr<ThreadPool> pool_threads;
  if (num_threads > 1) {
    pool_threads = std::make_unique<ThreadPool>(static_cast<size_t>(num_threads));
  }

  std::vector<bool> used(pool.size(), false);
  uint64_t used_storage = 0;
  uint64_t round_index = 0;

  // Delta-costing state (EvaluateCandidate). Queries referencing each
  // table, in query order, built once. Each candidate's per-query costs
  // from its last complete evaluation, aligned with its table's list; empty
  // means none, so its next evaluation costs every query. A vector is only
  // ever one round old: a candidate that is not evaluated in a round either
  // never becomes eligible again (used, or over the storage budget) or the
  // round was cut short and enumeration stops before the next one. `recost`
  // flags the queries on the last winner's table, the only ones whose costs
  // a new round can change.
  std::vector<std::vector<size_t>> queries_on_table(catalog.num_tables());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (const sql::BoundTableRef& ref : queries[qi].query->tables) {
      std::vector<size_t>& on_table = queries_on_table[ref.table];
      if (on_table.empty() || on_table.back() != qi) on_table.push_back(qi);
    }
  }
  std::vector<std::vector<double>> candidate_costs(pool.size());
  std::vector<bool> recost(queries.size(), false);

  // Checkpoint/resume (header comment and docs/ROBUSTNESS.md): the restore
  // runs only after the fresh initial costing above, so the stored initial
  // cost can be validated bit-for-bit before the checkpoint seeds anything.
  const CheckpointConfig ckpt_config = EffectiveCheckpoint(ckpt);
  std::unique_ptr<CheckpointStore> ckpt_store;
  std::vector<size_t> winner_ids;  // pool indices in add order
  uint64_t ckpt_written_rounds = 0;
  const uint64_t ckpt_every =
      ckpt_config.every_rounds == 0 ? 1 : ckpt_config.every_rounds;
  bool restored_done = false;
  if (ckpt_config.enabled()) {
    const uint64_t fingerprint = EnumerationFingerprint(
        queries, pool, max_indexes, storage_budget_bytes);
    ckpt_store = std::make_unique<CheckpointStore>(ckpt_config.path + ".enum",
                                                   fingerprint);
    StatusOr<EnumSnapshot> snapshot = LoadEnumSnapshot(*ckpt_store, fingerprint);
    if (snapshot.ok() &&
        snapshot->initial_cost_bits == DoubleBits(result.initial_cost) &&
        snapshot->costs.size() == queries.size() &&
        snapshot->winners.size() <= static_cast<size_t>(max_indexes)) {
      bool winners_valid = true;
      std::vector<bool> replayed(pool.size(), false);
      for (const uint64_t w : snapshot->winners) {
        if (w >= pool.size() || replayed[w]) {
          winners_valid = false;
          break;
        }
        replayed[w] = true;
      }
      if (winners_valid) {
        for (const uint64_t w : snapshot->winners) {
          const size_t i = static_cast<size_t>(w);
          used[i] = true;
          used_storage += pool[i].SizeBytes(catalog);
          result.configuration.Add(pool[i]);
          winner_ids.push_back(i);
        }
        round_index = winner_ids.size();
        result.configurations_explored = snapshot->configurations_explored;
        current_cost = std::move(snapshot->costs);
        total_cost = DoubleFromBits(snapshot->total_cost_bits);
        restored_done = snapshot->done != 0;
        ckpt_written_rounds = winner_ids.size();
        obs::journal::CkptRestore(
            "enum", ckpt_store->loaded_epoch(), winner_ids.size(),
            obs::SelectionOrderHash(winner_ids.data(), winner_ids.size()),
            restored_done ? 1 : 0);
      }
    }
  }
  // Best-effort epoch write: a failed write is counted
  // (ckpt.write_failures) but never fails the run — losing resumability
  // must not lose the result.
  auto write_checkpoint = [&](bool done) {
    EnumSnapshot snapshot;
    snapshot.fingerprint = ckpt_store->fingerprint();
    snapshot.done = done ? 1 : 0;
    snapshot.stop_reason = static_cast<uint64_t>(result.stop_reason);
    snapshot.configurations_explored = result.configurations_explored;
    snapshot.initial_cost_bits = DoubleBits(result.initial_cost);
    snapshot.total_cost_bits = DoubleBits(total_cost);
    snapshot.winners.assign(winner_ids.begin(), winner_ids.end());
    snapshot.costs = current_cost;
    CheckpointWriter writer;
    EncodeEnumSnapshot(snapshot, &writer);
    const uint64_t epoch = ckpt_store->next_epoch();
    if (!ckpt_store->WriteEpoch(writer).ok()) return;
    ckpt_written_rounds = winner_ids.size();
    obs::journal::CkptWrite("enum", epoch, winner_ids.size(),
                            ckpt_store->last_write_bytes());
  };

  while (!restored_done &&
         static_cast<int>(result.configuration.size()) < max_indexes) {
    const Status round_check = budget.CheckCancelled();
    if (!round_check.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(round_check);
      break;  // anytime: keep what we have
    }
    const Status round_fault = ISUM_FAULT_POINT("advisor.enumerate");
    if (!round_fault.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(round_fault);
      break;
    }
    // Candidates eligible this round (unused + fitting the budget).
    std::vector<size_t> eligible;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (used[i]) continue;
      if (storage_budget_bytes > 0 &&
          used_storage + pool[i].SizeBytes(catalog) > storage_budget_bytes) {
        continue;
      }
      eligible.push_back(i);
    }
    if (eligible.empty()) break;
    rounds_counter->Add(1);
    explored_counter->Add(eligible.size());
    result.configurations_explored += eligible.size();
    const uint64_t round_calls_before = whatif_calls_counter->Value();
    const uint64_t round_hits_before = whatif_hits_counter->Value();

    // When a budget is attached, candidate evaluations run under a per-round
    // child token: the first worker to observe expiry/cancellation fires it,
    // so the rest of the batch is skipped instead of costed pointlessly.
    // With no budget the round token stays null (zero-cost path).
    CancellationToken round_cancel;
    if (budget.limited()) round_cancel = budget.token().Child();
    const TimeBudget round_budget(budget.deadline(), round_cancel);

    std::vector<CandidateEvaluation> evaluations(eligible.size());
    auto evaluate = [&](size_t e) {
      const engine::Index& candidate = pool[eligible[e]];
      evaluations[e] = EvaluateCandidate(
          what_if, queries, prepared, queries_on_table[candidate.table()],
          result.configuration, candidate, current_cost, recost,
          candidate_costs[eligible[e]], round_budget);
      const Status& st = evaluations[e].status;
      if (!st.ok() && st.code() != StatusCode::kUnavailable &&
          round_cancel.cancellable()) {
        round_cancel.Cancel();
      }
    };
    if (pool_threads != nullptr) {
      pool_threads->ParallelFor(eligible.size(), evaluate, round_cancel);
    } else {
      for (size_t e = 0; e < eligible.size(); ++e) {
        evaluate(e);
        if (round_cancel.cancelled()) break;
      }
    }

    // A deadline/cancellation mid-round invalidates the round: which
    // candidates finished depends on timing, so applying a winner here would
    // make the output nondeterministic. Keep the configuration from the
    // completed rounds instead.
    Status stop_status;
    size_t faulted = 0;
    for (size_t e = 0; e < eligible.size(); ++e) {
      const Status& st = evaluations[e].status;
      if (st.ok()) continue;
      if (st.code() == StatusCode::kUnavailable) {
        ++faulted;
      } else if (stop_status.ok()) {
        stop_status = st;
      }
    }
    if (!stop_status.ok()) {
      result.stop_reason = TimeBudget::ReasonFor(stop_status);
      break;
    }
    if (faulted == eligible.size()) {
      // Every candidate failed persistently: nothing left to cost.
      result.stop_reason = StopReason::kFault;
      break;
    }

    // Deterministic reduction: best improvement, ties to the lowest index.
    // Candidates whose costing failed are treated as non-improving.
    size_t best_e = eligible.size();
    double best_improvement = 0.0;
    for (size_t e = 0; e < eligible.size(); ++e) {
      if (!evaluations[e].status.ok()) continue;
      if (evaluations[e].improvement > best_improvement) {
        best_improvement = evaluations[e].improvement;
        best_e = e;
      }
    }
    if (best_e == eligible.size()) break;

    const size_t best_i = eligible[best_e];
    if (obs::journal::Enabled()) {
      obs::journal::EnumRound(
          round_index, eligible.size(), best_i, best_improvement,
          whatif_hits_counter->Value() - round_hits_before,
          whatif_calls_counter->Value() - round_calls_before);
    }
    ++round_index;
    used[best_i] = true;
    used_storage += pool[best_i].SizeBytes(catalog);
    result.configuration.Add(pool[best_i]);
    const std::vector<size_t>& won = queries_on_table[pool[best_i].table()];
    recost.assign(queries.size(), false);
    for (size_t j = 0; j < won.size(); ++j) {
      current_cost[won[j]] = candidate_costs[best_i][j];
      recost[won[j]] = true;
    }
    candidate_costs[best_i] = {};
    total_cost -= best_improvement;
    if (ckpt_store != nullptr) {
      winner_ids.push_back(best_i);
      if (winner_ids.size() >= ckpt_written_rounds + ckpt_every) {
        write_checkpoint(/*done=*/false);
      }
    }
  }

  result.final_cost = total_cost;
  if (ckpt_store != nullptr && !restored_done) {
    write_checkpoint(result.stop_reason == StopReason::kComplete);
  }
  NoteStopReason(result.stop_reason);
  obs::journal::EnumEnd(result.configuration.size(), result.initial_cost,
                        result.final_cost,
                        StopReasonToString(result.stop_reason));
  return result;
}

}  // namespace isum::advisor
