#ifndef ISUM_WORKLOAD_WORKLOAD_H_
#define ISUM_WORKLOAD_WORKLOAD_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/deadline.h"
#include "common/status.h"
#include "engine/cost_model.h"
#include "sql/bound_query.h"
#include "stats/stats_manager.h"

namespace isum::workload {

/// One query instance of the input workload: SQL text, its bound form, and
/// its optimizer-estimated cost under the *current* physical design (the
/// paper assumes these costs arrive with the workload, §2.2).
struct QueryInfo {
  int32_t id = -1;
  std::string sql;
  sql::BoundQuery bound;
  double base_cost = 0.0;
  uint64_t template_hash = 0;
  /// Optional generator tag (e.g. DSB class "SPJ"/"Aggregate"/"Complex").
  std::string tag;
};

/// An input workload W = {q_1..q_n}. Query objects live at stable addresses
/// for the lifetime of the Workload (what-if caching keys on identity).
class Workload {
 public:
  /// The environment a workload is bound against. The Workload does not own
  /// these; they must outlive it.
  struct Environment {
    const catalog::Catalog* catalog = nullptr;
    const stats::StatsManager* stats = nullptr;
    const engine::CostModel* cost_model = nullptr;
  };

  explicit Workload(Environment env) : env_(env) {}
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = default;
  Workload& operator=(Workload&&) = default;

  /// Parses, binds and costs `sql`, then appends it. `tag` is an optional
  /// generator label.
  Status AddQuery(const std::string& sql, std::string tag = "");

  /// Appends an already-bound query (cost computed if `base_cost` < 0).
  void AddBoundQuery(sql::BoundQuery bound, std::string sql, double base_cost,
                     std::string tag = "");

  size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }
  const QueryInfo& query(size_t i) const { return queries_[i]; }
  QueryInfo& mutable_query(size_t i) { return queries_[i]; }

  /// Sum of base costs, C(W).
  double TotalCost() const;

  /// Number of distinct query templates.
  size_t NumTemplates() const { return by_template_.size(); }

  /// Query indices grouped by template hash.
  const std::unordered_map<uint64_t, std::vector<size_t>>& templates() const {
    return by_template_;
  }

  const Environment& env() const { return env_; }

 private:
  Environment env_;
  std::deque<QueryInfo> queries_;  // deque: stable element addresses
  std::unordered_map<uint64_t, std::vector<size_t>> by_template_;
};

/// A compressed workload W_k: selected query indices into the source
/// workload with their weights (§7).
struct CompressedWorkload {
  struct Entry {
    size_t query_index = 0;
    double weight = 1.0;
    /// The marginal benefit greedy selection estimated when it picked this
    /// query (0 when the producer predates selection benefits). Carried so
    /// post-eval attribution (`attribution` decision events) can compare the
    /// estimate against the realized cost reduction.
    double selection_benefit = 0.0;
  };
  std::vector<Entry> entries;
  /// kComplete, or why selection stopped early — the entries are then the
  /// valid best-so-far prefix of the greedy run (docs/ROBUSTNESS.md).
  StopReason stop_reason = StopReason::kComplete;

  size_t size() const { return entries.size(); }

  /// Normalizes weights to sum to 1 (no-op when empty or all-zero).
  void NormalizeWeights();
};

}  // namespace isum::workload

#endif  // ISUM_WORKLOAD_WORKLOAD_H_
