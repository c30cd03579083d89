#include "engine/configuration.h"

#include <algorithm>

namespace isum::engine {

Configuration::Configuration(std::vector<Index> indexes) {
  for (Index& index : indexes) Add(std::move(index));
}

bool Configuration::Add(Index index) {
  if (Contains(index)) return false;
  indexes_.push_back(std::move(index));
  return true;
}

bool Configuration::Remove(const Index& index) {
  auto it = std::find(indexes_.begin(), indexes_.end(), index);
  if (it == indexes_.end()) return false;
  indexes_.erase(it);
  return true;
}

bool Configuration::Contains(const Index& index) const {
  return std::find(indexes_.begin(), indexes_.end(), index) != indexes_.end();
}

std::vector<const Index*> Configuration::IndexesOnTable(
    catalog::TableId table) const {
  std::vector<const Index*> out;
  IndexesOnTable(table, &out);
  return out;
}

void Configuration::IndexesOnTable(catalog::TableId table,
                                   std::vector<const Index*>* out) const {
  out->clear();
  for (const Index& index : indexes_) {
    if (index.table() == table) out->push_back(&index);
  }
}

uint64_t Configuration::TotalSizeBytes(const catalog::Catalog& catalog) const {
  uint64_t total = 0;
  for (const Index& index : indexes_) total += index.SizeBytes(catalog);
  return total;
}

std::string Configuration::DebugString(const catalog::Catalog& catalog) const {
  std::string out;
  for (const Index& index : indexes_) {
    out += "  " + index.DebugName(catalog) + "\n";
  }
  return out;
}

}  // namespace isum::engine
