#include "eval/drilldown.h"

#include <algorithm>

#include "common/string_util.h"
#include "engine/optimizer.h"

namespace isum::eval {

DrilldownReport BuildDrilldown(const workload::Workload& workload,
                               const workload::CompressedWorkload& compressed,
                               const engine::Configuration& config,
                               double min_similarity) {
  DrilldownReport report;
  if (compressed.entries.empty()) return report;

  // Features for similarity-based representation assignment.
  core::FeatureSpace space;
  const core::WorkloadFeatures features =
      core::FeaturizeWorkload(workload, {}, &space);
  const auto features_of = [&features](size_t i) -> const core::SparseVector& {
    return features.rows[features.class_of[i]];
  };

  engine::Optimizer optimizer(workload.env().cost_model);

  double before_total = 0.0;
  double after_total = 0.0;
  std::vector<bool> selected(workload.size(), false);
  for (const auto& e : compressed.entries) {
    DrilldownEntry entry;
    entry.query_index = e.query_index;
    entry.weight = e.weight;
    const workload::QueryInfo& q = workload.query(e.query_index);
    entry.cost_before = q.base_cost;
    const engine::PlanSummary plan = optimizer.Optimize(q.bound, config);
    entry.cost_after = plan.total_cost;
    for (const engine::PlannedTable& pt : plan.tables) {
      const engine::Index* used =
          pt.join_method == engine::JoinMethod::kIndexNestedLoop ? pt.inl_index
                                                                 : pt.access.index;
      if (used != nullptr) {
        entry.indexes_used.push_back(
            used->DebugName(*workload.env().catalog));
      }
    }
    before_total += e.weight * entry.cost_before;
    after_total += e.weight * entry.cost_after;
    selected[e.query_index] = true;
    report.entries.push_back(std::move(entry));
  }
  report.compressed_improvement_percent =
      before_total > 0.0 ? (before_total - after_total) / before_total * 100.0
                         : 0.0;

  // Assign every unselected input query to its most similar selected query.
  for (size_t i = 0; i < workload.size(); ++i) {
    if (selected[i]) continue;
    double best = 0.0;
    size_t rep = 0;
    for (size_t e = 0; e < report.entries.size(); ++e) {
      const double sim = core::WeightedJaccard(
          features_of(i), features_of(report.entries[e].query_index));
      if (sim > best) {
        best = sim;
        rep = e;
      }
    }
    if (best >= min_similarity) {
      report.entries[rep].represents.push_back(RepresentedQuery{i, best});
    } else {
      report.unrepresented.push_back(i);
    }
  }
  for (DrilldownEntry& entry : report.entries) {
    std::sort(entry.represents.begin(), entry.represents.end(),
              [](const RepresentedQuery& a, const RepresentedQuery& b) {
                return a.similarity > b.similarity;
              });
  }
  return report;
}

std::string DrilldownReport::ToString(
    const workload::Workload& workload) const {
  std::string out = StrFormat(
      "Drill-down: %zu selected queries, estimated improvement on the "
      "compressed workload %.1f%%\n",
      entries.size(), compressed_improvement_percent);
  for (const DrilldownEntry& entry : entries) {
    const workload::QueryInfo& q = workload.query(entry.query_index);
    out += StrFormat("\nq%zu (weight %.3f)  cost %.0f -> %.0f (%.1f%%)\n",
                     entry.query_index, entry.weight, entry.cost_before,
                     entry.cost_after,
                     entry.cost_before > 0.0
                         ? (entry.cost_before - entry.cost_after) /
                               entry.cost_before * 100.0
                         : 0.0);
    out += "  " + q.sql.substr(0, 100) + (q.sql.size() > 100 ? "...\n" : "\n");
    if (!entry.indexes_used.empty()) {
      out += "  uses: " + Join(entry.indexes_used, ", ") + "\n";
    }
    if (!entry.represents.empty()) {
      out += StrFormat("  represents %zu input queries:", entry.represents.size());
      const size_t shown = std::min<size_t>(entry.represents.size(), 8);
      for (size_t i = 0; i < shown; ++i) {
        out += StrFormat(" q%zu(%.2f)", entry.represents[i].query_index,
                         entry.represents[i].similarity);
      }
      if (entry.represents.size() > shown) out += " ...";
      out += "\n";
    }
  }
  if (!unrepresented.empty()) {
    out += StrFormat("\n%zu input queries are not represented by any "
                     "selected query (similarity ~ 0):",
                     unrepresented.size());
    const size_t shown = std::min<size_t>(unrepresented.size(), 12);
    for (size_t i = 0; i < shown; ++i) {
      out += StrFormat(" q%zu", unrepresented[i]);
    }
    if (unrepresented.size() > shown) out += " ...";
    out += "\n";
  }
  return out;
}

}  // namespace isum::eval
