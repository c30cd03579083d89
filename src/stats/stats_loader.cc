#include "stats/stats_loader.h"

#include "common/jsonl.h"
#include "common/string_util.h"

namespace isum::stats {

StatusOr<int> LoadColumnStats(const std::string& jsonl,
                              const catalog::Catalog& catalog,
                              StatsManager* stats, uint64_t seed) {
  DataGenerator generator;
  Rng rng(seed);
  int loaded = 0;
  ISUM_ASSIGN_OR_RETURN(const std::vector<JsonValue> lines,
                        ParseJsonLines(jsonl));
  for (const JsonValue& line : lines) {
    ISUM_ASSIGN_OR_RETURN(std::string table, line.String("table"));
    ISUM_ASSIGN_OR_RETURN(std::string column, line.String("column"));
    const catalog::ColumnId id = catalog.ResolveColumn(table, column);
    if (!id.valid()) {
      return Status::NotFound("unknown column '" + table + "." + column + "'");
    }

    ColumnDataSpec spec;
    ISUM_ASSIGN_OR_RETURN(double distinct, line.Number("distinct"));
    spec.distinct = static_cast<uint64_t>(std::max(1.0, distinct));
    ISUM_ASSIGN_OR_RETURN(spec.domain_min, line.Number("min"));
    ISUM_ASSIGN_OR_RETURN(spec.domain_max, line.Number("max"));
    if (spec.domain_max < spec.domain_min) {
      return Status::InvalidArgument("min > max for '" + table + "." + column +
                                     "'");
    }
    if (line.Has("distribution")) {
      ISUM_ASSIGN_OR_RETURN(std::string dist, line.String("distribution"));
      const std::string lower = ToLower(dist);
      if (lower == "uniform") {
        spec.distribution = Distribution::kUniform;
      } else if (lower == "zipf") {
        spec.distribution = Distribution::kZipf;
      } else if (lower == "gaussian" || lower == "normal") {
        spec.distribution = Distribution::kGaussian;
      } else {
        return Status::InvalidArgument("unknown distribution '" + dist + "'");
      }
    }
    if (line.Has("skew")) {
      ISUM_ASSIGN_OR_RETURN(spec.zipf_skew, line.Number("skew"));
    }
    if (line.Has("nulls")) {
      ISUM_ASSIGN_OR_RETURN(spec.null_fraction, line.Number("nulls"));
    }

    Rng column_rng = rng.Fork(static_cast<uint64_t>(loaded) + 1);
    stats->SetStats(id, generator.Generate(
                            spec, catalog.table(id.table).row_count(),
                            column_rng));
    ++loaded;
  }
  return loaded;
}

}  // namespace isum::stats
