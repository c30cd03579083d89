#include "workload/workload.h"

#include "engine/optimizer.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace isum::workload {

Status Workload::AddQuery(const std::string& sql, std::string tag) {
  ISUM_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::ParseSelect(sql));
  sql::Binder binder(env_.catalog, env_.stats);
  ISUM_ASSIGN_OR_RETURN(sql::BoundQuery bound, binder.Bind(stmt));
  AddBoundQuery(std::move(bound), sql, /*base_cost=*/-1.0, std::move(tag));
  return Status::OK();
}

void Workload::AddBoundQuery(sql::BoundQuery bound, std::string sql,
                             double base_cost, std::string tag) {
  QueryInfo info;
  info.id = static_cast<int32_t>(queries_.size());
  info.sql = std::move(sql);
  info.template_hash = bound.template_hash;
  info.tag = std::move(tag);
  info.bound = std::move(bound);
  if (base_cost < 0.0) {
    engine::Optimizer optimizer(env_.cost_model);
    base_cost = optimizer.Cost(info.bound, engine::Configuration());
    info.base_cost_from_optimizer = true;
  }
  info.base_cost = base_cost;
  by_template_[info.template_hash].push_back(queries_.size());
  queries_.push_back(std::move(info));
}

double Workload::TotalCost() const {
  double total = 0.0;
  for (const QueryInfo& q : queries_) total += q.base_cost;
  return total;
}

void CompressedWorkload::NormalizeWeights() {
  double total = 0.0;
  for (const Entry& e : entries) total += e.weight;
  if (total <= 0.0) return;
  for (Entry& e : entries) e.weight /= total;
}

}  // namespace isum::workload
