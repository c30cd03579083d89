#ifndef ISUM_ENGINE_CONFIGURATION_H_
#define ISUM_ENGINE_CONFIGURATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/index.h"

namespace isum::engine {

/// An index configuration: a set of hypothetical indexes the optimizer costs
/// against. Deduplicates on insert and keeps insertion order, which
/// IndexesOnTable preserves (the optimizer's tie-breaking depends on it, so
/// delta-costed enumeration keeps the trial order fixed: base, then
/// candidate).
class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(std::vector<Index> indexes);

  /// Adds `index` if not already present; returns true if added.
  bool Add(Index index);

  /// Removes an equal index if present; returns true if removed.
  bool Remove(const Index& index);

  bool Contains(const Index& index) const;

  const std::vector<Index>& indexes() const { return indexes_; }
  size_t size() const { return indexes_.size(); }
  bool empty() const { return indexes_.empty(); }

  /// Indexes defined on `table` (in insertion order).
  std::vector<const Index*> IndexesOnTable(catalog::TableId table) const;
  /// The same into `*out` (cleared first), reusing its capacity.
  void IndexesOnTable(catalog::TableId table,
                      std::vector<const Index*>* out) const;

  /// Total estimated storage of all indexes.
  uint64_t TotalSizeBytes(const catalog::Catalog& catalog) const;

  /// Multi-line listing for reports.
  std::string DebugString(const catalog::Catalog& catalog) const;

 private:
  std::vector<Index> indexes_;
};

}  // namespace isum::engine

#endif  // ISUM_ENGINE_CONFIGURATION_H_
