#ifndef ISUM_ADVISOR_CANDIDATE_GENERATION_H_
#define ISUM_ADVISOR_CANDIDATE_GENERATION_H_

#include <vector>

#include "common/deadline.h"
#include "engine/index.h"
#include "sql/bound_query.h"
#include "stats/stats_manager.h"

namespace isum::advisor {

/// Limits for syntactic candidate generation.
struct CandidateGenOptions {
  /// Maximum key columns per candidate index.
  int max_key_columns = 3;
  /// Maximum INCLUDE columns attached to covering variants.
  int max_include_columns = 8;
  /// Also emit covering variants (key + remaining referenced columns).
  bool covering_variants = true;
};

/// Generates the syntactically relevant candidate indexes for one query by
/// combining its indexable columns per the rule set of Table 1 in the paper:
///   R1 selection            R2 join
///   R3 selection + join     R4 join + selection
///   R5 order-by + selection + join   R6 group-by + selection + join
///   R7 order-by + join + selection   R8 group-by + join + selection
/// Selection columns are ordered most-selective-first (as index advisors do).
/// Results are deduplicated. `budget` makes generation anytime: it is
/// observed at per-table and covering-variant boundaries, and on expiry the
/// candidates emitted so far are returned (each is independently valid).
std::vector<engine::Index> GenerateCandidates(
    const sql::BoundQuery& query, const stats::StatsManager& stats,
    const CandidateGenOptions& options = {}, const TimeBudget& budget = {});

/// The query's sargable filters, most selective first (ascending
/// selectivity; equal selectivities keep std::sort's order). This is the
/// selection order GenerateCandidates reads, and the featurizer keys its
/// feature classes on it (core::FeaturizeWorkload), so both read one order.
std::vector<const sql::FilterPredicate*> SargableFiltersBySelectivity(
    const sql::BoundQuery& query);

/// Indexable columns of `query` grouped by role (Definition 5 of the paper):
/// filter, join, group-by and order-by columns, per referenced table.
struct IndexableColumns {
  std::vector<catalog::ColumnId> filter_columns;
  std::vector<catalog::ColumnId> join_columns;
  std::vector<catalog::ColumnId> group_by_columns;
  std::vector<catalog::ColumnId> order_by_columns;
};

/// Extracts indexable columns (deduplicated per role, preserving first-seen
/// order). Filter columns include those in complex predicates.
IndexableColumns ExtractIndexableColumns(const sql::BoundQuery& query);

}  // namespace isum::advisor

#endif  // ISUM_ADVISOR_CANDIDATE_GENERATION_H_
