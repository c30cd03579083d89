#ifndef ISUM_SQL_BINDER_H_
#define ISUM_SQL_BINDER_H_

#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "sql/ast.h"
#include "sql/bound_query.h"
#include "stats/stats_manager.h"

namespace isum::sql {

/// Resolves names in a parsed statement against a catalog, classifies WHERE
/// conjuncts into sargable filters / equi-joins / complex residuals, encodes
/// literals, and estimates per-predicate selectivities from statistics.
class Binder {
 public:
  /// `stats` may outlive the binder; both pointers must be non-null.
  Binder(const catalog::Catalog* catalog, const stats::StatsManager* stats)
      : catalog_(catalog), stats_(stats) {}

  /// Binds `stmt`.
  StatusOr<BoundQuery> Bind(const SelectStatement& stmt) const;
  /// Same as Bind(stmt); the text is discarded. Kept only because
  /// benchmark/isum_bench.cc calls this form, so it goes with a change that
  /// may edit benchmark/ (ROADMAP item 4).
  StatusOr<BoundQuery> Bind(const SelectStatement& stmt,
                            const std::string& /*sql_text*/) const {
    return Bind(stmt);
  }

 private:
  const catalog::Catalog* catalog_;
  const stats::StatsManager* stats_;
};

/// Encodes a literal to the numeric domain used by statistics: numbers pass
/// through, ISO dates (YYYY-MM-DD) become days since 1970-01-01, other
/// strings hash to a stable value.
double EncodeLiteral(const LiteralExpression& lit);

/// Days since 1970-01-01 for an ISO date string; nullopt if not a date.
std::optional<double> ParseIsoDate(const std::string& text);

}  // namespace isum::sql

#endif  // ISUM_SQL_BINDER_H_
