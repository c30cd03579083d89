#include "core/weighting.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>

#include "advisor/candidate_generation.h"
#include "common/hash.h"

namespace isum::core {

namespace {

/// Raw (un-normalized) weight per indexable column of one query.
using RawWeights = std::unordered_map<catalog::ColumnId, double>;

/// w_table(t) = n(t) / sum over the query's tables of n(t').
std::unordered_map<catalog::TableId, double> TableWeights(
    const sql::BoundQuery& query, const catalog::Catalog& catalog,
    bool enabled) {
  std::unordered_map<catalog::TableId, double> out;
  double total = 0.0;
  for (const auto& ref : query.tables) {
    const double n = static_cast<double>(catalog.table(ref.table).row_count());
    out[ref.table] = n;
    total += n;
  }
  for (auto& [t, w] : out) {
    w = enabled && total > 0.0 ? w / total : 1.0;
  }
  return out;
}

/// Rule-based importance: the fraction d(t,c)/d(t) of Table-1 candidate
/// indexes on c's table that contain c, counted over the actual rule
/// generator so weights stay consistent with the advisor.
RawWeights RuleBasedWeights(const sql::BoundQuery& query,
                            const stats::StatsManager& stats) {
  advisor::CandidateGenOptions gen;
  gen.covering_variants = false;  // candidate counting uses key combinations
  const std::vector<engine::Index> candidates =
      advisor::GenerateCandidates(query, stats, gen);

  std::unordered_map<catalog::TableId, double> per_table_total;
  RawWeights contains;
  for (const engine::Index& index : candidates) {
    per_table_total[index.table()] += 1.0;
    for (catalog::ColumnId c : index.key_columns()) contains[c] += 1.0;
  }
  for (auto& [c, cnt] : contains) {
    const double d_t = per_table_total[c.table];
    cnt = d_t > 0.0 ? cnt / d_t : 0.0;
  }
  return contains;
}

/// Stats-based importance: 1 - selectivity for filter/join columns,
/// 1 - density for group-by/order-by columns (smaller statistic = heavier).
RawWeights StatsBasedWeights(const sql::BoundQuery& query,
                             const stats::StatsManager& stats) {
  RawWeights out;
  auto bump = [&out](catalog::ColumnId c, double w) {
    auto [it, inserted] = out.emplace(c, w);
    if (!inserted) it->second = std::max(it->second, w);
  };
  for (const auto& f : query.filters) {
    bump(f.column, 1.0 - std::clamp(f.selectivity, 0.0, 1.0));
  }
  for (const auto& cp : query.complex_predicates) {
    for (catalog::ColumnId c : cp.columns) {
      bump(c, 1.0 - std::clamp(cp.selectivity, 0.0, 1.0));
    }
  }
  for (const auto& j : query.joins) {
    bump(j.left, 1.0 - std::clamp(j.selectivity, 0.0, 1.0));
    bump(j.right, 1.0 - std::clamp(j.selectivity, 0.0, 1.0));
  }
  for (catalog::ColumnId g : query.group_by_columns) {
    bump(g, 1.0 - std::clamp(stats.Density(g), 0.0, 1.0));
  }
  for (const auto& [c, desc] : query.order_by_columns) {
    bump(c, 1.0 - std::clamp(stats.Density(c), 0.0, 1.0));
  }
  return out;
}

/// Everything Featurize reads from one query, flattened into `*out` in a
/// fixed order with a length before each list so lists cannot run into each
/// other. Catalog row counts and column densities are per table/column, so
/// equal keys featurize to equal vectors.
void FeatureClassKey(const sql::BoundQuery& query,
                     const FeaturizationOptions& options,
                     std::vector<uint64_t>* out) {
  const auto column = [](catalog::ColumnId c) {
    return uint64_t{static_cast<uint32_t>(c.table)} << 32 |
           static_cast<uint32_t>(c.column);
  };
  std::vector<uint64_t>& key = *out;
  key.clear();
  key.push_back(options.use_table_weight ? 1 : 0);
  key.push_back(query.tables.size());
  for (const auto& ref : query.tables) {
    key.push_back(static_cast<uint32_t>(ref.table));
  }
  const std::vector<const sql::FilterPredicate*> sargable =
      advisor::SargableFiltersBySelectivity(query);
  key.push_back(sargable.size());
  for (const auto* f : sargable) key.push_back(column(f->column));
  key.push_back(query.filters.size());
  for (const auto& f : query.filters) key.push_back(column(f.column));
  key.push_back(query.complex_predicates.size());
  for (const auto& cp : query.complex_predicates) {
    key.push_back(cp.columns.size());
    for (catalog::ColumnId c : cp.columns) key.push_back(column(c));
  }
  key.push_back(query.joins.size());
  for (const auto& j : query.joins) {
    key.push_back(column(j.left));
    key.push_back(column(j.right));
  }
  key.push_back(query.group_by_columns.size());
  for (catalog::ColumnId g : query.group_by_columns) key.push_back(column(g));
  key.push_back(query.order_by_columns.size());
  for (const auto& [c, desc] : query.order_by_columns) {
    key.push_back(column(c));
  }
  if (options.scheme == WeightingScheme::kStatsBased) {
    for (const auto& f : query.filters) {
      key.push_back(std::bit_cast<uint64_t>(f.selectivity));
    }
    for (const auto& cp : query.complex_predicates) {
      key.push_back(std::bit_cast<uint64_t>(cp.selectivity));
    }
    for (const auto& j : query.joins) {
      key.push_back(std::bit_cast<uint64_t>(j.selectivity));
    }
  }
}

struct FeatureClassKeyHash {
  size_t operator()(const std::vector<uint64_t>& key) const {
    uint64_t h = key.size();
    for (const uint64_t v : key) h = HashCombine(h, v);
    return static_cast<size_t>(h);
  }
};

}  // namespace

WorkloadFeatures FeaturizeWorkload(const workload::Workload& workload,
                                   const FeaturizationOptions& options,
                                   FeatureSpace* space) {
  const Featurizer featurizer(workload.env().catalog, workload.env().stats,
                              space);
  std::unordered_map<std::vector<uint64_t>, uint32_t, FeatureClassKeyHash>
      classes;
  std::vector<uint64_t> key;  // reused: a hit allocates nothing
  WorkloadFeatures out;
  out.class_of.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const sql::BoundQuery& query = workload.query(i).bound;
    FeatureClassKey(query, options, &key);
    auto it = classes.find(key);
    if (it == classes.end()) {
      it = classes.emplace(key, static_cast<uint32_t>(out.rows.size())).first;
      out.rows.push_back(featurizer.Featurize(query, options));
    }
    out.class_of.push_back(it->second);
  }
  return out;
}

SparseVector Featurizer::Featurize(const sql::BoundQuery& query,
                                   const FeaturizationOptions& options) const {
  RawWeights raw = options.scheme == WeightingScheme::kRuleBased
                       ? RuleBasedWeights(query, *stats_)
                       : StatsBasedWeights(query, *stats_);

  // Ensure every indexable column is represented even if its raw weight came
  // out zero (e.g. a column in no candidate): keep it with a small floor so
  // similarity still sees shared columns.
  const advisor::IndexableColumns indexable =
      advisor::ExtractIndexableColumns(query);
  constexpr double kFloor = 1e-3;
  auto ensure = [&raw, kFloor](const std::vector<catalog::ColumnId>& cols) {
    for (catalog::ColumnId c : cols) {
      auto [it, inserted] = raw.emplace(c, kFloor);
      if (!inserted && it->second <= 0.0) it->second = kFloor;
    }
  };
  ensure(indexable.filter_columns);
  ensure(indexable.join_columns);
  ensure(indexable.group_by_columns);
  ensure(indexable.order_by_columns);

  const auto table_weights =
      TableWeights(query, *catalog_, options.use_table_weight);
  double max_w = 0.0, min_w = std::numeric_limits<double>::infinity();
  for (auto& [c, w] : raw) {
    auto it = table_weights.find(c.table);
    w *= it != table_weights.end() ? it->second : 1.0;
    max_w = std::max(max_w, w);
    min_w = std::min(min_w, w);
  }

  // Min-max normalization as in §4.2: w̄ = w / (max - min); when all weights
  // are equal every feature gets weight 1. Guard: a *nearly* zero range
  // (e.g. two stats-based selectivities differing by 1e-6) would scale the
  // whole query's features by ~1e6, collapsing its weighted-Jaccard
  // similarity to every other query — treat that as the all-equal case.
  const double range = max_w - min_w;
  const bool degenerate = range <= 1e-9 * std::max(max_w, 1e-300);
  std::vector<SparseVector::Entry> entries;
  entries.reserve(raw.size());
  for (const auto& [c, w] : raw) {
    const double norm = degenerate ? 1.0 : w / range;
    entries.push_back({space_->GetOrCreate(c), norm});
  }
  return SparseVector::FromPairs(std::move(entries));
}

}  // namespace isum::core
