#include "core/features.h"

#include <algorithm>
#include <cmath>

namespace isum::core {

int FeatureSpace::GetOrCreate(catalog::ColumnId column) {
  auto it = ids_.find(column);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(columns_.size());
  ids_.emplace(column, id);
  columns_.push_back(column);
  return id;
}

int FeatureSpace::Find(catalog::ColumnId column) const {
  auto it = ids_.find(column);
  return it == ids_.end() ? -1 : it->second;
}

SparseVector SparseVector::FromPairs(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.feature < b.feature; });
  SparseVector out;
  for (const Entry& e : entries) {
    if (!out.entries_.empty() && out.entries_.back().feature == e.feature) {
      out.entries_.back().weight += e.weight;
    } else {
      out.entries_.push_back(e);
    }
  }
  return out;
}

void SparseVector::Set(int feature, double weight) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), feature,
      [](const Entry& e, int f) { return e.feature < f; });
  if (it != entries_.end() && it->feature == feature) {
    if (weight == 0.0) {
      entries_.erase(it);
    } else {
      it->weight = weight;
    }
  } else if (weight != 0.0) {
    entries_.insert(it, Entry{feature, weight});
  }
}

double SparseVector::Get(int feature) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), feature,
      [](const Entry& e, int f) { return e.feature < f; });
  return (it != entries_.end() && it->feature == feature) ? it->weight : 0.0;
}

bool SparseVector::AllZero() const {
  for (const Entry& e : entries_) {
    if (e.weight > 0.0) return false;
  }
  return true;
}

double SparseVector::Sum() const {
  double s = 0.0;
  for (const Entry& e : entries_) s += e.weight;
  return s;
}

void SparseVector::AddScaled(const SparseVector& other, double scale) {
  std::vector<Entry> scratch;
  AddScaled(other, scale, &scratch);
}

void SparseVector::AddScaled(const SparseVector& other, double scale,
                             std::vector<Entry>* scratch) {
  std::vector<Entry>& merged = *scratch;
  merged.clear();
  merged.reserve(entries_.size() + other.entries_.size());
  size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() && entries_[i].feature < other.entries_[j].feature)) {
      merged.push_back(entries_[i++]);
    } else if (i >= entries_.size() ||
               other.entries_[j].feature < entries_[i].feature) {
      merged.push_back(Entry{other.entries_[j].feature,
                             other.entries_[j].weight * scale});
      ++j;
    } else {
      merged.push_back(Entry{entries_[i].feature,
                             entries_[i].weight + other.entries_[j].weight * scale});
      ++i;
      ++j;
    }
  }
  entries_.swap(merged);
}

void SparseVector::SubtractScaledClamped(const SparseVector& other,
                                         double scale) {
  AddScaled(other, -scale);
  for (Entry& e : entries_) e.weight = std::max(0.0, e.weight);
}

void SparseVector::Scale(double scale) {
  for (Entry& e : entries_) e.weight *= scale;
}

void SparseVector::SubtractFromAllClamped(double delta) {
  for (Entry& e : entries_) e.weight = std::max(0.0, e.weight - delta);
}

void SparseVector::ZeroWhere(const SparseVector& mask) {
  size_t i = 0, j = 0;
  while (i < entries_.size() && j < mask.entries_.size()) {
    if (entries_[i].feature < mask.entries_[j].feature) {
      ++i;
    } else if (mask.entries_[j].feature < entries_[i].feature) {
      ++j;
    } else {
      if (mask.entries_[j].weight > 0.0) entries_[i].weight = 0.0;
      ++i;
      ++j;
    }
  }
}

double WeightedJaccard(const SparseVector& a, const SparseVector& b) {
  double min_sum = 0.0, max_sum = 0.0;
  const auto& ae = a.entries();
  const auto& be = b.entries();
  size_t i = 0, j = 0;
  while (i < ae.size() || j < be.size()) {
    if (j >= be.size() || (i < ae.size() && ae[i].feature < be[j].feature)) {
      max_sum += ae[i].weight;
      ++i;
    } else if (i >= ae.size() || be[j].feature < ae[i].feature) {
      max_sum += be[j].weight;
      ++j;
    } else {
      min_sum += std::min(ae[i].weight, be[j].weight);
      max_sum += std::max(ae[i].weight, be[j].weight);
      ++i;
      ++j;
    }
  }
  return max_sum > 0.0 ? min_sum / max_sum : 0.0;
}

void DenseScratch::Reserve(size_t num_features) {
  if (dense_.size() < num_features) dense_.resize(num_features, 0.0);
}

void DenseScratch::Scatter(const SparseVector& v) {
  for (int32_t f : touched_) dense_[f] = 0.0;
  touched_.clear();
  sum_ = 0.0;
  for (const SparseVector::Entry& e : v.entries()) {
    if (static_cast<size_t>(e.feature) >= dense_.size()) {
      dense_.resize(static_cast<size_t>(e.feature) + 1, 0.0);
    }
    dense_[e.feature] = e.weight;
    touched_.push_back(e.feature);
    sum_ += e.weight;
  }
}

double WeightedJaccardVsDense(const DenseScratch& query,
                              const SparseVector& row) {
  double min_sum = 0.0, row_sum = 0.0;
  for (const SparseVector::Entry& e : row.entries()) {
    row_sum += e.weight;
    min_sum += std::min(e.weight, query.Get(e.feature));
  }
  const double max_sum = query.sum() + row_sum - min_sum;
  return max_sum > 0.0 ? min_sum / max_sum : 0.0;
}

}  // namespace isum::core
