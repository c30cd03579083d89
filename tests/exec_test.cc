// Tests for the execution substrate (materialization, index lookups, plan
// execution) and its calibration properties against the cost model.

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "common/math_util.h"
#include "common/string_util.h"
#include "advisor/advisor.h"
#include "engine/what_if.h"
#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/workload_factory.h"

namespace isum::exec {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() {
    workload::GeneratorOptions gen;
    gen.instances_per_template = 1;
    gen.scale = 0.002;  // tiny fact tables for execution
    env_ = workload::MakeTpch(gen);
    db_.emplace(env_->catalog.get(), env_->stats.get());
    db_->MaterializeAll(/*max_rows_per_table=*/20'000, /*seed=*/5);
  }

  const workload::Workload& W() { return *env_->workload; }

  engine::PlanSummary PlanOf(size_t i, const engine::Configuration& config) {
    engine::Optimizer opt(env_->cost_model.get());
    return opt.Optimize(W().query(i).bound, config);
  }

  std::optional<workload::GeneratedWorkload> env_;
  std::optional<Database> db_;
};

TEST_F(ExecTest, MaterializationMatchesCatalogShapes) {
  for (size_t t = 0; t < env_->catalog->num_tables(); ++t) {
    const catalog::TableId id = static_cast<catalog::TableId>(t);
    const TableData& data = db_->table(id);
    const catalog::Table& meta = env_->catalog->table(id);
    EXPECT_EQ(data.num_columns(), meta.columns().size());
    EXPECT_EQ(data.num_rows(), std::min<uint64_t>(20'000, meta.row_count()));
  }
}

TEST_F(ExecTest, KeyColumnsAreDenseUnique) {
  const catalog::Table* nation = env_->catalog->FindTable("nation");
  const TableData& data = db_->table(nation->id());
  std::set<double> values;
  for (size_t r = 0; r < data.num_rows(); ++r) values.insert(data.Value(0, r));
  EXPECT_EQ(values.size(), data.num_rows());
  EXPECT_EQ(*values.begin(), 1.0);
  EXPECT_EQ(*values.rbegin(), static_cast<double>(data.num_rows()));
}

TEST_F(ExecTest, MaterializedSelectivityTracksStatistics) {
  // Fraction of lineitem rows with l_shipdate <= median should be ~50%.
  const catalog::Table* lineitem = env_->catalog->FindTable("lineitem");
  const catalog::ColumnId shipdate =
      env_->catalog->ResolveColumn("lineitem", "l_shipdate");
  const double median = env_->stats->ValueAtQuantile(shipdate, 0.5);
  const TableData& data = db_->table(lineitem->id());
  size_t below = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    below += (data.Value(shipdate.column, r) <= median);
  }
  EXPECT_NEAR(static_cast<double>(below) / data.num_rows(), 0.5, 0.06);
}

TEST_F(ExecTest, IndexLookupMatchesLinearScan) {
  const catalog::Table* orders = env_->catalog->FindTable("orders");
  const catalog::ColumnId odate =
      env_->catalog->ResolveColumn("orders", "o_orderdate");
  engine::Index index(orders->id(), {odate});
  const IndexData& idx = db_->GetIndex(index);
  const TableData& data = db_->table(orders->id());

  const double lo = env_->stats->ValueAtQuantile(odate, 0.3);
  const double hi = env_->stats->ValueAtQuantile(odate, 0.4);
  uint64_t touched = 0;
  const std::vector<uint32_t> via_index = idx.LookupRange(lo, hi, &touched);
  size_t via_scan = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const double v = data.Value(odate.column, r);
    via_scan += (v >= lo && v <= hi);
  }
  EXPECT_EQ(via_index.size(), via_scan);
  EXPECT_GT(touched, 0u);
  EXPECT_LT(touched, data.num_rows());  // seek touched far fewer than all
}

TEST_F(ExecTest, ExecutionOutputTracksEstimatedCardinality) {
  Executor executor(&*db_);
  int within = 0, total = 0;
  for (size_t i = 0; i < W().size(); ++i) {
    const engine::PlanSummary plan = PlanOf(i, engine::Configuration());
    const ExecutionResult run = executor.Execute(W().query(i).bound, plan);
    if (run.truncated) continue;
    ++total;
    // Loose band: estimates within ~30x of executed output for most queries
    // (estimation error compounds across joins).
    const double est = std::max(1.0, plan.output_rows);
    const double act = std::max(1.0, run.output_rows);
    if (est / act < 30.0 && act / est < 30.0) ++within;
  }
  EXPECT_GT(total, 15);
  EXPECT_GT(within * 10, total * 6);  // >60%
}

TEST_F(ExecTest, EstimatedCostCorrelatesWithExecutedWork) {
  Executor executor(&*db_);
  std::vector<double> est_cost, work;
  for (size_t i = 0; i < W().size(); ++i) {
    const engine::PlanSummary plan = PlanOf(i, engine::Configuration());
    const ExecutionResult run = executor.Execute(W().query(i).bound, plan);
    if (run.truncated) continue;
    est_cost.push_back(plan.total_cost);
    work.push_back(static_cast<double>(run.row_ops));
  }
  // Rank correlation: cheap queries execute less work, expensive ones more.
  EXPECT_GT(SpearmanCorrelation(est_cost, work), 0.55);
}

TEST_F(ExecTest, IndexSeekExecutesLessWorkThanScan) {
  // Find a single-table query with a selective sargable filter and compare
  // executed work with and without its best index.
  Executor executor(&*db_);
  advisor::TuningOptions unused;
  (void)unused;
  int checked = 0;
  for (size_t i = 0; i < W().size() && checked < 4; ++i) {
    const sql::BoundQuery& q = W().query(i).bound;
    if (q.tables.size() != 1 || q.filters.empty()) continue;

    const engine::PlanSummary scan_plan = PlanOf(i, engine::Configuration());
    // Index on the most selective sargable filter column.
    const sql::FilterPredicate* best = nullptr;
    for (const auto& f : q.filters) {
      if (f.sargable && (best == nullptr || f.selectivity < best->selectivity)) {
        best = &f;
      }
    }
    if (best == nullptr || best->selectivity > 0.5) continue;
    // A covering index (all referenced columns included) so the optimizer
    // can accept the seek even at moderate selectivity.
    std::vector<catalog::ColumnId> includes;
    for (catalog::ColumnId c : q.ReferencedColumns()) {
      if (c != best->column) includes.push_back(c);
    }
    engine::Configuration config;
    config.Add(engine::Index(best->column.table, {best->column}, includes));
    const engine::PlanSummary seek_plan = PlanOf(i, config);
    if (seek_plan.tables[0].access.index == nullptr) continue;

    const uint64_t scan_work =
        executor.Execute(q, scan_plan).row_ops;
    const uint64_t seek_work = executor.Execute(q, seek_plan).row_ops;
    EXPECT_LT(seek_work, scan_work) << W().query(i).sql;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(ExecTest, RecommendedConfigurationReducesExecutedWork) {
  // The advisor's recommendation must reduce *executed* total work, not
  // just estimated cost — the end-to-end calibration claim.
  std::vector<advisor::WeightedQuery> queries;
  for (size_t i = 0; i < W().size(); ++i) {
    queries.push_back({&W().query(i).bound, 1.0});
  }
  advisor::TuningOptions options;
  options.max_indexes = 12;
  advisor::DtaStyleAdvisor advisor(env_->cost_model.get());
  const advisor::TuningResult tuned = advisor.Tune(queries, options);
  ASSERT_GT(tuned.configuration.size(), 0u);

  Executor executor(&*db_);
  uint64_t before = 0, after = 0;
  for (size_t i = 0; i < W().size(); ++i) {
    const ExecutionResult base =
        executor.Execute(W().query(i).bound, PlanOf(i, engine::Configuration()));
    const ExecutionResult opt =
        executor.Execute(W().query(i).bound, PlanOf(i, tuned.configuration));
    if (base.truncated || opt.truncated) continue;
    before += base.row_ops;
    after += opt.row_ops;
  }
  EXPECT_LT(after, before);
}

TEST_F(ExecTest, ExecutionIsDeterministic) {
  Executor executor(&*db_);
  const engine::PlanSummary plan = PlanOf(3, engine::Configuration());
  const ExecutionResult a = executor.Execute(W().query(3).bound, plan);
  const ExecutionResult b = executor.Execute(W().query(3).bound, plan);
  EXPECT_EQ(a.row_ops, b.row_ops);
  EXPECT_EQ(a.output_rows, b.output_rows);
}

/// Appends the column references in `expr` that the binder's
/// CollectColumns resolves (unflattened subqueries stay opaque to both).
void CollectColumnRefs(const sql::Expression& expr,
                       std::vector<const sql::ColumnRefExpression*>* out) {
  switch (expr.kind()) {
    case sql::ExpressionKind::kColumnRef:
      out->push_back(static_cast<const sql::ColumnRefExpression*>(&expr));
      return;
    case sql::ExpressionKind::kBinary: {
      const auto& e = static_cast<const sql::BinaryExpression&>(expr);
      CollectColumnRefs(e.lhs(), out);
      CollectColumnRefs(e.rhs(), out);
      return;
    }
    case sql::ExpressionKind::kUnaryNot:
      CollectColumnRefs(static_cast<const sql::UnaryNotExpression&>(expr).child(),
                        out);
      return;
    case sql::ExpressionKind::kIn: {
      const auto& e = static_cast<const sql::InExpression&>(expr);
      CollectColumnRefs(e.operand(), out);
      for (const auto& v : e.values()) CollectColumnRefs(*v, out);
      return;
    }
    case sql::ExpressionKind::kBetween: {
      const auto& e = static_cast<const sql::BetweenExpression&>(expr);
      CollectColumnRefs(e.operand(), out);
      CollectColumnRefs(e.lo(), out);
      CollectColumnRefs(e.hi(), out);
      return;
    }
    case sql::ExpressionKind::kLike:
      CollectColumnRefs(static_cast<const sql::LikeExpression&>(expr).operand(),
                        out);
      return;
    case sql::ExpressionKind::kIsNull:
      CollectColumnRefs(
          static_cast<const sql::IsNullExpression&>(expr).operand(), out);
      return;
    case sql::ExpressionKind::kFunctionCall:
      for (const auto& a :
           static_cast<const sql::FunctionCallExpression&>(expr).args()) {
        CollectColumnRefs(*a, out);
      }
      return;
    default:
      return;
  }
}

/// Counts of what CheckRetainedPredicates looked at.
struct ResolveCounts {
  int predicates = 0;
  /// Qualified references whose qualifier is an alias, not the table name.
  int aliased_refs = 0;
};

/// Checks that every column reference in every retained predicate of `query`
/// resolves, through exec's alias map, to a column the binder bound for that
/// predicate, so the executor evaluates it exactly rather than by the
/// Bernoulli fallback.
void CheckRetainedPredicates(const catalog::Catalog& catalog,
                             const sql::BoundQuery& query,
                             const std::string& label, ResolveCounts* counts) {
  const AliasMap aliases = BuildAliasMap(query);
  const ExpressionEvaluator evaluator(&catalog, &aliases);
  auto check = [&](const sql::Expression& expr,
                   const std::vector<catalog::ColumnId>& bound) {
    ++counts->predicates;
    std::vector<const sql::ColumnRefExpression*> refs;
    CollectColumnRefs(expr, &refs);
    EXPECT_FALSE(refs.empty()) << label;
    for (const sql::ColumnRefExpression* ref : refs) {
      const std::string name = ref->table() + "." + ref->column();
      std::optional<catalog::ColumnId> resolved;
      evaluator.Scalar(*ref, [&](catalog::ColumnId c) {
        resolved = c;
        return std::optional<double>(0.0);
      });
      ASSERT_TRUE(resolved.has_value()) << label << ": " << name;
      EXPECT_NE(std::find(bound.begin(), bound.end(), *resolved), bound.end())
          << label << ": " << name;
      if (!ref->table().empty() &&
          ToLower(ref->table()) != ToLower(catalog.table(resolved->table).name())) {
        ++counts->aliased_refs;
      }
    }
  };
  for (const sql::FilterPredicate& f : query.filters) {
    if (f.expr != nullptr) check(*f.expr, {f.column});
  }
  for (const sql::ComplexPredicate& c : query.complex_predicates) {
    if (c.expr != nullptr) check(*c.expr, c.columns);
  }
}

TEST_F(ExecTest, RetainedPredicatesResolveEveryColumn) {
  workload::GeneratorOptions gen;
  gen.instances_per_template = 1;
  ResolveCounts total;
  for (const char* name : {"tpch", "tpcds", "dsb", "realm"}) {
    const workload::GeneratedWorkload env =
        workload::MakeWorkloadByName(name, gen);
    ResolveCounts counts;
    for (size_t i = 0; i < env.workload->size(); ++i) {
      CheckRetainedPredicates(*env.catalog, env.workload->query(i).bound,
                              std::string(name) + " query " + std::to_string(i),
                              &counts);
    }
    total.predicates += counts.predicates;
  }
  // Only TPC-H's generator writes retained predicates today (Q19's OR across
  // part and lineitem), and none of the generators writes table aliases; the
  // hand-written cases below reach the alias path.
  EXPECT_GT(total.predicates, 0);

  // Hand-written: self-join aliases (the Q7 shape), and a table flattened out
  // of an EXISTS subquery whose residual OR names it by its alias.
  const sql::Binder binder(env_->catalog.get(), env_->stats.get());
  for (const char* text : {
           "SELECT n1.n_name FROM supplier, customer, nation n1, nation n2 "
           "WHERE s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey "
           "AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY') OR "
           "(n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))",
           "SELECT o.o_orderkey FROM orders o WHERE EXISTS (SELECT * FROM "
           "lineitem li WHERE li.l_orderkey = o.o_orderkey AND "
           "(li.l_quantity > 30 OR li.l_discount > 0.05))",
       }) {
    auto stmt = sql::ParseSelect(text);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto bound = binder.Bind(*stmt);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ResolveCounts counts;
    CheckRetainedPredicates(*env_->catalog, *bound, text, &counts);
    EXPECT_EQ(counts.predicates, 1) << text;
    EXPECT_GT(counts.aliased_refs, 0) << text;
  }
}

}  // namespace
}  // namespace isum::exec
