#ifndef ISUM_WORKLOAD_QUERY_STORE_H_
#define ISUM_WORKLOAD_QUERY_STORE_H_

#include <string>

#include "workload/workload.h"

namespace isum::workload {

/// Query-Store-style workload persistence (paper §2.2/§10: systems log query
/// texts with their optimizer-estimated costs, e.g. SQL Server Query Store,
/// and compression should consume those logs instead of making optimizer
/// calls). Format: one JSON object per line — {"sql": ..., "cost": ...,
/// "tag": ...} — stable, diffable, and greppable.

/// Serializes `workload` to JSONL.
std::string SaveQueryStore(const Workload& workload);

/// Loads a JSONL query store into `workload` (parsing and binding each SQL
/// against the workload's environment; recorded costs are used verbatim,
/// with no optimizer calls). Returns the number of queries loaded; fails on
/// malformed lines or unbindable SQL.
StatusOr<int> LoadQueryStore(const std::string& jsonl, Workload* workload);

}  // namespace isum::workload

#endif  // ISUM_WORKLOAD_QUERY_STORE_H_
