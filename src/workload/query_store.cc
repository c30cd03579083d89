#include "workload/query_store.h"

#include "common/jsonl.h"
#include "common/string_util.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace isum::workload {

std::string SaveQueryStore(const Workload& workload) {
  std::string out;
  for (size_t i = 0; i < workload.size(); ++i) {
    const QueryInfo& q = workload.query(i);
    // The query-store JSONL format predates the obs emitters and is a
    // persistence format (load/save round-trip), not telemetry.
    // NOLINTNEXTLINE(isum-journal-schema)
    out += StrFormat("{\"sql\": \"%s\", \"cost\": %.17g, \"tag\": \"%s\"}\n",
                     JsonEscape(q.sql).c_str(), q.base_cost,
                     JsonEscape(q.tag).c_str());
  }
  return out;
}

StatusOr<int> LoadQueryStore(const std::string& jsonl, Workload* workload) {
  int loaded = 0;
  sql::Binder binder(workload->env().catalog, workload->env().stats);
  ISUM_ASSIGN_OR_RETURN(const std::vector<JsonValue> lines,
                        ParseJsonLines(jsonl));
  for (const JsonValue& line : lines) {
    ISUM_ASSIGN_OR_RETURN(std::string sql, line.String("sql"));
    ISUM_ASSIGN_OR_RETURN(double cost, line.Number("cost"));
    std::string tag;
    if (line.Has("tag")) {
      ISUM_ASSIGN_OR_RETURN(tag, line.String("tag"));
    }
    ISUM_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::ParseSelect(sql));
    ISUM_ASSIGN_OR_RETURN(sql::BoundQuery bound, binder.Bind(stmt));
    workload->AddBoundQuery(std::move(bound), std::move(sql), cost,
                            std::move(tag));
    ++loaded;
  }
  return loaded;
}

}  // namespace isum::workload
