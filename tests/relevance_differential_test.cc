// Differential oracle for index relevance (engine::Optimizer::CanUse): an
// index a query cannot use must leave its plan unchanged, wherever it sits
// in the configuration. Over every query of seeded TPC-H-, TPC-DS-, DSB-
// and Real-M-like workloads, each unusable index (the query's own
// candidates, other queries' candidates on its tables, random indexes on
// its tables and indexes on other tables) is inserted at a random position
// of a random configuration, and the plan is compared with the plan without
// it in every PlanSummary field: costs and row counts bit for bit, chosen
// indexes by value. CanUse is also checked against the four clauses
// derived from the bound query alone.
//
// One hand-built witness per clause: a query and an index for which only
// that clause holds and the plan changes, so dropping any clause from
// CanUse fails here.
//
// Evaluation: WorkloadImprovementPercent, which skips planning queries
// that can use no index of the configuration, must equal the loop that
// plans every query, bit for bit, on a generated workload and on the same
// queries loaded from a query store with exact and with altered recorded
// costs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "advisor/candidate_generation.h"
#include "catalog/schema_builder.h"
#include "common/jsonl.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/optimizer.h"
#include "eval/pipeline.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats/data_generator.h"
#include "workload/query_store.h"
#include "workload/workload_factory.h"

namespace isum::engine {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool SameIndex(const Index* a, const Index* b) {
  return a == nullptr ? b == nullptr : b != nullptr && *a == *b;
}

/// The first PlanSummary field in which `a` and `b` differ, or "" when they
/// are equal: doubles bit for bit, indexes by value (the two plans come from
/// different Configuration objects).
std::string PlanDiff(const PlanSummary& a, const PlanSummary& b) {
  if (Bits(a.total_cost) != Bits(b.total_cost)) return "total_cost";
  if (Bits(a.output_rows) != Bits(b.output_rows)) return "output_rows";
  if (a.sort_needed != b.sort_needed) return "sort_needed";
  if (a.sort_avoided_by_index != b.sort_avoided_by_index) {
    return "sort_avoided_by_index";
  }
  if (a.stream_aggregate != b.stream_aggregate) return "stream_aggregate";
  if (Bits(a.aggregate_cost) != Bits(b.aggregate_cost)) return "aggregate_cost";
  if (Bits(a.sort_cost) != Bits(b.sort_cost)) return "sort_cost";
  if (a.tables.size() != b.tables.size()) return "tables.size";
  for (size_t s = 0; s < a.tables.size(); ++s) {
    const PlannedTable& x = a.tables[s];
    const PlannedTable& y = b.tables[s];
    const std::string step = "step " + std::to_string(s) + " ";
    if (x.table != y.table) return step + "table";
    if (x.join_method != y.join_method) return step + "join_method";
    if (!SameIndex(x.inl_index, y.inl_index)) return step + "inl_index";
    if (Bits(x.step_cost) != Bits(y.step_cost)) return step + "step_cost";
    if (Bits(x.cumulative_rows) != Bits(y.cumulative_rows)) {
      return step + "cumulative_rows";
    }
    const AccessPath& p = x.access;
    const AccessPath& q = y.access;
    if (!SameIndex(p.index, q.index)) return step + "access.index";
    if (Bits(p.cost) != Bits(q.cost)) return step + "access.cost";
    if (Bits(p.out_rows) != Bits(q.out_rows)) return step + "access.out_rows";
    if (Bits(p.fetched_rows) != Bits(q.fetched_rows)) {
      return step + "access.fetched_rows";
    }
    if (p.covering != q.covering) return step + "access.covering";
    if (p.provides_order != q.provides_order) {
      return step + "access.provides_order";
    }
    if (Bits(p.seek_selectivity) != Bits(q.seek_selectivity)) {
      return step + "access.seek_selectivity";
    }
  }
  return "";
}

/// The clauses of Optimizer::CanUse, derived from the bound query rather
/// than from a PreparedQuery.
enum Clause : int {
  kSeek = 1,
  kIndexNestedLoop = 2,
  kCovering = 4,
  kOrder = 8,
};

int Clauses(const sql::BoundQuery& q, const Index& index) {
  const catalog::TableId t = index.table();
  if (!q.ReferencesTable(t)) return 0;
  int mask = kCovering;
  for (catalog::ColumnId c : q.ReferencedColumns()) {
    if (c.table == t && !index.ContainsColumn(c)) mask = 0;
  }
  if (index.key_columns().empty()) return mask;
  const catalog::ColumnId lead = index.key_columns().front();
  for (const sql::FilterPredicate& f : q.filters) {
    if (f.column == lead && f.sargable &&
        (IsEqualityOp(f.op) || IsRangeOp(f.op))) {
      mask |= kSeek;
    }
  }
  for (const sql::JoinPredicate& j : q.joins) {
    if ((j.left == lead && j.right.table != t) ||
        (j.right == lead && j.left.table != t)) {
      mask |= kIndexNestedLoop;
    }
  }
  // A desired order exists only for a single-table query (after folding
  // self-joins): its ORDER BY, else its GROUP BY.
  std::unordered_set<catalog::TableId> tables;
  for (const sql::BoundTableRef& ref : q.tables) tables.insert(ref.table);
  if (tables.size() == 1) {
    const catalog::ColumnId* first =
        !q.order_by_columns.empty()   ? &q.order_by_columns.front().first
        : !q.group_by_columns.empty() ? &q.group_by_columns.front()
                                      : nullptr;
    if (first != nullptr && *first == lead) mask |= kOrder;
  }
  return mask;
}

/// A random index on `table`: one to three distinct key columns, and with
/// probability 1/3 one or two include columns that are not keys.
Index RandomIndex(const catalog::Catalog& catalog, catalog::TableId table,
                  Rng& rng) {
  const size_t n = catalog.table(table).columns().size();
  std::vector<size_t> ordinals(n);
  for (size_t i = 0; i < n; ++i) ordinals[i] = i;
  rng.Shuffle(ordinals);
  const size_t keys = std::min<size_t>(n, 1 + rng.NextUint64(3));
  std::vector<catalog::ColumnId> key_columns;
  for (size_t i = 0; i < keys; ++i) {
    key_columns.push_back({table, static_cast<int32_t>(ordinals[i])});
  }
  std::vector<catalog::ColumnId> includes;
  if (rng.NextBool(1.0 / 3.0)) {
    for (size_t i = keys; i < std::min(n, keys + 1 + rng.NextUint64(2)); ++i) {
      includes.push_back({table, static_cast<int32_t>(ordinals[i])});
    }
  }
  return Index(table, std::move(key_columns), std::move(includes));
}

/// Up to 4 of the query's own candidates and up to 4 pool indexes, shuffled.
Configuration RandomConfiguration(const std::vector<Index>& own,
                                  const std::vector<Index>& pool, Rng& rng) {
  std::vector<Index> picks;
  const size_t n_own = own.empty() ? 0 : rng.NextUint64(5);
  for (size_t k = 0; k < n_own; ++k) {
    picks.push_back(own[rng.NextUint64(own.size())]);
  }
  const size_t n_pool = rng.NextUint64(5);
  for (size_t k = 0; k < n_pool; ++k) {
    picks.push_back(pool[rng.NextUint64(pool.size())]);
  }
  rng.Shuffle(picks);
  return Configuration(std::move(picks));
}

// ---- Seeded workloads under random configurations ----

constexpr size_t kConfigsPerQuery = 6;
constexpr size_t kRandomIndexesPerTable = 3;
constexpr size_t kPoolTrials = 12;

struct Case {
  const char* workload;
  uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << "/" << c.seed;
}

class RelevanceDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(RelevanceDifferentialTest, UnusableIndexLeavesPlanUnchanged) {
  workload::GeneratorOptions gen;
  gen.seed = GetParam().seed;
  gen.instances_per_template = 2;
  gen.max_templates = 40;
  const workload::GeneratedWorkload env =
      workload::MakeWorkloadByName(GetParam().workload, gen);
  const workload::Workload& w = *env.workload;
  ASSERT_GT(w.size(), 0u);

  std::vector<std::vector<Index>> own(w.size());
  std::vector<Index> pool;
  std::unordered_set<Index> seen;
  for (size_t i = 0; i < w.size(); ++i) {
    own[i] = advisor::GenerateCandidates(w.query(i).bound, *env.stats);
    for (const Index& index : own[i]) {
      if (seen.insert(index).second) pool.push_back(index);
    }
  }
  ASSERT_GT(pool.size(), 1u);

  const Optimizer optimizer(env.cost_model.get());
  Rng rng(GetParam().seed * 104729 + 3);
  size_t usable = 0;
  size_t unusable_on_own_tables = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    const sql::BoundQuery& q = w.query(i).bound;
    const PreparedQuery prepared = Optimizer::Prepare(q);
    std::vector<Index> trials = own[i];
    for (size_t k = 0; k < kPoolTrials; ++k) {
      trials.push_back(pool[rng.NextUint64(pool.size())]);
    }
    for (const sql::BoundTableRef& ref : q.tables) {
      for (size_t k = 0; k < kRandomIndexesPerTable; ++k) {
        trials.push_back(RandomIndex(*env.catalog, ref.table, rng));
      }
    }
    for (const Index& index : trials) {
      ASSERT_EQ(Optimizer::CanUse(prepared, index), Clauses(q, index) != 0)
          << "query " << i << " index " << index.DebugName(*env.catalog);
    }
    for (size_t c = 0; c < kConfigsPerQuery; ++c) {
      const Configuration base =
          c == 0 ? Configuration() : RandomConfiguration(own[i], pool, rng);
      const PlanSummary want = optimizer.Optimize(prepared, base);
      for (const Index& index : trials) {
        if (Optimizer::CanUse(prepared, index)) {
          ++usable;
          continue;
        }
        if (base.Contains(index)) continue;
        unusable_on_own_tables += q.ReferencesTable(index.table());
        std::vector<Index> with = base.indexes();
        const size_t at = rng.NextUint64(with.size() + 1);
        with.insert(with.begin() + static_cast<ptrdiff_t>(at), index);
        const Configuration trial(std::move(with));
        const PlanSummary got = optimizer.Optimize(prepared, trial);
        ASSERT_EQ(PlanDiff(got, want), "")
            << "query " << i << " config " << c << " index "
            << index.DebugName(*env.catalog) << " at " << at;
      }
    }
  }
  // The sweep must reach both verdicts, and unusable indexes on the
  // query's own tables, where the planner does look at them.
  EXPECT_GT(usable, 0u);
  EXPECT_GT(unusable_on_own_tables, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RelevanceDifferential, RelevanceDifferentialTest,
    ::testing::Values(Case{"tpch", 1}, Case{"tpch", 2}, Case{"tpcds", 1},
                      Case{"tpcds", 2}, Case{"dsb", 1}, Case{"realm", 1}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.workload) + "_seed" +
             std::to_string(info.param.seed);
    });

// ---- One witness per clause ----

class RelevanceDifferentialWitness : public ::testing::Test {
 protected:
  RelevanceDifferentialWitness()
      : stats_(&cat_), cost_model_(&cat_, &stats_), optimizer_(&cost_model_) {
    catalog::SchemaBuilder b(&cat_);
    b.Table("t1", 1'000'000)
        .Key("a", catalog::ColumnType::kInt)
        .Col("b", catalog::ColumnType::kInt)
        .Col("c", catalog::ColumnType::kInt)
        .Col("d", catalog::ColumnType::kInt);
    b.Table("t2", 50'000)
        .Key("x", catalog::ColumnType::kInt)
        .Col("y", catalog::ColumnType::kInt);
    // Rows wider than a page: an ordered index scan with a base-row lookup
    // per row reads less than the heap does, so it can win on order alone.
    b.Table("wide", 1'000)
        .Key("k", catalog::ColumnType::kInt)
        .Col("s", catalog::ColumnType::kInt)
        .Col("doc", catalog::ColumnType::kChar, 40'000);
    stats::DataGenerator dg;
    Rng rng(1);
    for (const char* t : {"t1", "t2", "wide"}) {
      const catalog::Table* table = cat_.FindTable(t);
      for (const catalog::Column& col : table->columns()) {
        stats::ColumnDataSpec spec;
        spec.distribution = col.is_key ? stats::Distribution::kKey
                                       : stats::Distribution::kUniform;
        // t1.b is nearly unique, so a seek or probe on it is cheap.
        spec.distinct = col.name == "b" ? 100'000 : 1'000;
        spec.domain_min = 0;
        spec.domain_max = static_cast<double>(spec.distinct);
        stats_.SetStats(catalog::ColumnId{table->id(), col.ordinal},
                        dg.Generate(spec, table->row_count(), rng));
      }
    }
  }

  catalog::ColumnId Col(const char* table, const char* column) {
    return cat_.ResolveColumn(table, column);
  }

  /// Expects exactly `clause` to hold for `index` on `sql`, CanUse to be
  /// true, and the plan to change when `index` joins the empty
  /// configuration.
  void ExpectWitness(const std::string& sql, const Index& index, int clause) {
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    auto bound = sql::Binder(&cat_, &stats_).Bind(*stmt);
    ASSERT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    EXPECT_EQ(Clauses(*bound, index), clause) << sql;
    const PreparedQuery prepared = Optimizer::Prepare(*bound);
    EXPECT_TRUE(Optimizer::CanUse(prepared, index)) << sql;
    const Configuration with(std::vector<Index>{index});
    EXPECT_NE(PlanDiff(optimizer_.Optimize(prepared, with),
                       optimizer_.Optimize(prepared, Configuration())),
              "")
        << sql;
  }

  catalog::Catalog cat_;
  stats::StatsManager stats_;
  CostModel cost_model_;
  Optimizer optimizer_;
};

TEST_F(RelevanceDifferentialWitness, SeekOnLeadingKey) {
  ExpectWitness("SELECT a, c FROM t1 WHERE b = 7",
                Index(Col("t1", "a").table, {Col("t1", "b")}), kSeek);
}

TEST_F(RelevanceDifferentialWitness, IndexNestedLoopOnJoinColumn) {
  ExpectWitness("SELECT t1.c, t2.y FROM t1, t2 WHERE t1.b = t2.x AND t2.y = 3",
                Index(Col("t1", "a").table, {Col("t1", "b")}),
                kIndexNestedLoop);
}

TEST_F(RelevanceDifferentialWitness, CoveringIndexOnlyScan) {
  ExpectWitness("SELECT SUM(c) FROM t1",
                Index(Col("t1", "a").table, {Col("t1", "d")}, {Col("t1", "c")}),
                kCovering);
}

TEST_F(RelevanceDifferentialWitness, OrderProvidedByLeadingKey) {
  ExpectWitness("SELECT k, doc FROM wide ORDER BY s",
                Index(Col("wide", "k").table, {Col("wide", "s")}), kOrder);
}

// ---- Evaluation ----

/// WorkloadImprovementPercent as it was before it skipped any query: one
/// plan per query, summed in query order.
double UnfilteredImprovementPercent(const workload::Workload& w,
                                    const Configuration& config) {
  const double base = w.TotalCost();
  if (base <= 0.0) return 0.0;
  const Optimizer optimizer(w.env().cost_model);
  double tuned = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    tuned += optimizer.Cost(w.query(i).bound, config);
  }
  return (base - tuned) / base * 100.0;
}

/// `w`'s queries as a query store, each recorded cost scaled by `factor`.
std::string QueryStore(const workload::Workload& w, double factor) {
  std::string out;
  for (size_t i = 0; i < w.size(); ++i) {
    out += StrFormat("{\"sql\": \"%s\", \"cost\": %.17g}\n",
                     JsonEscape(w.query(i).sql).c_str(),
                     w.query(i).base_cost * factor);
  }
  return out;
}

TEST(RelevanceDifferentialEval, ImprovementMatchesUnfilteredLoop) {
  for (const char* name : {"tpch", "tpcds"}) {
    workload::GeneratorOptions gen;
    gen.seed = 5;
    gen.instances_per_template = 3;
    gen.max_templates = 40;
    const workload::GeneratedWorkload env =
        workload::MakeWorkloadByName(name, gen);
    const workload::Workload& generated = *env.workload;
    std::vector<Index> pool;
    std::unordered_set<Index> seen;
    for (size_t i = 0; i < generated.size(); ++i) {
      for (Index& index :
           advisor::GenerateCandidates(generated.query(i).bound, *env.stats)) {
        if (seen.insert(index).second) pool.push_back(std::move(index));
      }
    }
    ASSERT_GT(pool.size(), 4u) << name;

    workload::Workload exact(generated.env());
    workload::Workload altered(generated.env());
    ASSERT_TRUE(
        workload::LoadQueryStore(QueryStore(generated, 1.0), &exact).ok());
    ASSERT_TRUE(
        workload::LoadQueryStore(QueryStore(generated, 1.25), &altered).ok());
    ASSERT_EQ(exact.size(), generated.size());
    ASSERT_EQ(altered.size(), generated.size());

    std::vector<Configuration> configs(1);
    Rng rng(11);
    for (const size_t size : {1, 2, 4, 8, 16}) {
      std::vector<Index> picks;
      for (size_t k = 0; k < size; ++k) {
        picks.push_back(pool[rng.NextUint64(pool.size())]);
      }
      configs.emplace_back(std::move(picks));
    }
    configs.emplace_back(pool);

    size_t skipped = 0;
    for (size_t c = 0; c < configs.size(); ++c) {
      const Configuration& config = configs[c];
      const workload::Workload* const workloads[] = {&generated, &exact,
                                                     &altered};
      for (const workload::Workload* w : workloads) {
        EXPECT_EQ(Bits(eval::WorkloadImprovementPercent(*w, config)),
                  Bits(UnfilteredImprovementPercent(*w, config)))
            << name << " config " << c;
      }
      for (size_t i = 0; i < generated.size(); ++i) {
        const PreparedQuery prepared =
            Optimizer::Prepare(generated.query(i).bound);
        bool usable = false;
        for (const Index& index : config.indexes()) {
          usable = usable || Optimizer::CanUse(prepared, index);
        }
        skipped += !usable;
      }
    }
    // The recorded costs are flagged as such, so the altered store is
    // re-planned rather than read back; and the generated workload does
    // have queries the evaluation skips.
    EXPECT_TRUE(generated.query(0).base_cost_from_optimizer);
    EXPECT_FALSE(exact.query(0).base_cost_from_optimizer);
    EXPECT_FALSE(altered.query(0).base_cost_from_optimizer);
    EXPECT_GT(skipped, 0u) << name;
  }
}

}  // namespace
}  // namespace isum::engine
