// Single-table and star query shapes over SSB data, built directly as
// PlanNodes and checked against the reference executor and every engine
// mode. These cases once reached the engine through a SQL front end; the
// suites keep their names so each case keeps its history.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sharing_engine.h"
#include "exec/expr.h"
#include "exec/plan.h"
#include "exec/reference_executor.h"
#include "test_util.h"
#include "workload/ssb.h"

namespace sharing {
namespace {

using testing::ExpectResultsEquivalent;
using testing::MakeTestDatabase;

/// Scan of `table` keeping `predicate` rows, projecting `columns` by name.
PlanNodeRef ScanOf(const Catalog& catalog, const std::string& table,
                   ExprRef predicate, const std::vector<std::string>& columns) {
  const Schema& schema = catalog.GetTable(table).value()->schema();
  std::vector<std::size_t> projection;
  for (const auto& name : columns) {
    projection.push_back(schema.ColumnIndex(name).value());
  }
  return std::make_shared<ScanNode>(table, schema, std::move(predicate),
                                    std::move(projection));
}

/// Hash join of `build` into `probe` on the named key columns.
PlanNodeRef JoinOn(PlanNodeRef build, PlanNodeRef probe,
                   const std::string& build_key,
                   const std::string& probe_key) {
  std::size_t bk = build->output_schema().ColumnIndex(build_key).value();
  std::size_t pk = probe->output_schema().ColumnIndex(probe_key).value();
  return std::make_shared<JoinNode>(std::move(build), std::move(probe), bk,
                                    pk);
}

ExprRef ColOf(const Catalog& catalog, const std::string& table,
              const std::string& column) {
  return ColNamed(catalog.GetTable(table).value()->schema(), column);
}

/// SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder
///   JOIN customer ON lo_custkey = c_custkey
///   JOIN date ON lo_orderdate = d_datekey
/// WHERE c_custkey % 1000 < `cust_mod_below` GROUP BY d_year
PlanNodeRef StarRevenueByYear(const Catalog& catalog,
                              int64_t cust_mod_below) {
  auto lo = ScanOf(catalog, "lineorder", TruePredicate(),
                   {"lo_custkey", "lo_orderdate", "lo_revenue"});
  ExprRef cust_pred =
      Cmp(CmpOp::kLt,
          Arith(ArithOp::kMod, ColOf(catalog, "customer", "c_custkey"),
                Lit(int64_t{1000})),
          Lit(cust_mod_below));
  auto c = ScanOf(catalog, "customer", cust_pred, {"c_custkey"});
  auto j1 = JoinOn(c, lo, "c_custkey", "lo_custkey");
  auto d = ScanOf(catalog, "date", TruePredicate(), {"d_datekey", "d_year"});
  auto j2 = JoinOn(d, j1, "d_datekey", "lo_orderdate");
  const Schema& out = j2->output_schema();
  std::size_t year = out.ColumnIndex("d_year").value();
  std::size_t revenue = out.ColumnIndex("lo_revenue").value();
  return std::make_shared<AggregateNode>(
      j2, std::vector<std::size_t>{year},
      std::vector<AggSpec>{AggSpec::Sum(Col(revenue, out.column(revenue).type),
                                        "revenue")});
}

/// GROUP BY column 0 of `child` with COUNT(*) AS n, sorted on column 0.
PlanNodeRef CountByFirstColumn(PlanNodeRef child, bool ascending,
                               std::size_t limit = 0) {
  auto agg = std::make_shared<AggregateNode>(
      std::move(child), std::vector<std::size_t>{0},
      std::vector<AggSpec>{AggSpec::Count("n")});
  return std::make_shared<SortNode>(
      agg, std::vector<SortKey>{{0, ascending}}, limit);
}

// ---------------------------------------------------------------------------
// Single-engine shapes, checked through the reference executor
// ---------------------------------------------------------------------------

class SqlBindTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeTestDatabase().release();
    SHARING_CHECK_OK(
        ssb::GenerateAll(db_->catalog(), db_->buffer_pool(), 0.002, 7));
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  const Catalog& catalog() const { return *db_->catalog(); }

  ResultSet MustRun(const PlanNodeRef& plan) {
    ReferenceExecutor ref(db_->catalog());
    auto result = ref.Execute(*plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  static Database* db_;
};

Database* SqlBindTest::db_ = nullptr;

TEST_F(SqlBindTest, SelectStarSingleTable) {
  auto* supplier = db_->catalog()->GetTable("supplier").value();
  std::vector<std::string> all;
  for (std::size_t i = 0; i < supplier->schema().num_columns(); ++i) {
    all.push_back(supplier->schema().column(i).name);
  }
  auto result = MustRun(ScanOf(catalog(), "supplier", TruePredicate(), all));
  EXPECT_EQ(result.num_rows(), supplier->num_rows());
  EXPECT_EQ(result.schema().num_columns(),
            supplier->schema().num_columns());
}

TEST_F(SqlBindTest, WherePushdownFilters) {
  auto result = MustRun(ScanOf(
      catalog(), "supplier",
      Cmp(CmpOp::kLt, ColOf(catalog(), "supplier", "s_suppkey"),
          Lit(int64_t{5})),
      {"s_suppkey"}));
  EXPECT_EQ(result.num_rows(), 4u);  // keys are 1-based: 1..4
}

TEST_F(SqlBindTest, WhereWithStringEquality) {
  auto all =
      MustRun(ScanOf(catalog(), "supplier", TruePredicate(), {"s_nation"}));
  ASSERT_GT(all.num_rows(), 0u);
  std::string nation(all.Row(0).GetString(0));
  // Trim the fixed-width padding.
  nation.erase(nation.find_last_not_of(' ') + 1);
  auto filtered = MustRun(ScanOf(
      catalog(), "supplier",
      Cmp(CmpOp::kEq, ColOf(catalog(), "supplier", "s_nation"),
          Lit(Value(nation))),
      {"s_nation"}));
  EXPECT_GT(filtered.num_rows(), 0u);
  EXPECT_LT(filtered.num_rows(), all.num_rows());
}

TEST_F(SqlBindTest, AggregateWithGroupBy) {
  auto result = MustRun(CountByFirstColumn(
      ScanOf(catalog(), "date", TruePredicate(), {"d_year"}),
      /*ascending=*/true));
  EXPECT_EQ(result.num_rows(), 7u);  // SSB date: 1992..1998
  EXPECT_EQ(result.schema().column(1).name, "n");
  // Years ascend; day counts sum to the full dimension (the last year is
  // truncated to make SSB's fixed 2,556-row date table).
  int64_t total_days = 0;
  for (std::size_t i = 0; i < result.num_rows(); ++i) {
    EXPECT_EQ(result.Row(i).GetInt64(0), 1992 + static_cast<int64_t>(i));
    int64_t days = result.Row(i).GetInt64(1);
    EXPECT_GE(days, 364);
    EXPECT_LE(days, 366);
    total_days += days;
  }
  EXPECT_EQ(total_days, 2556);
}

TEST_F(SqlBindTest, TpchQ6ShapeRuns) {
  // TPC-H Q6 over the SSB lineorder columns (same analytics shape):
  // SUM(lo_revenue) WHERE lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25.
  ExprRef pred = And(
      Between(ColOf(catalog(), "lineorder", "lo_discount"), Value(int64_t{1}),
              Value(int64_t{3})),
      Cmp(CmpOp::kLt, ColOf(catalog(), "lineorder", "lo_quantity"),
          Lit(int64_t{25})));
  auto scan = ScanOf(catalog(), "lineorder", pred, {"lo_revenue"});
  ValueType type = scan->output_schema().column(0).type;
  auto result = MustRun(std::make_shared<AggregateNode>(
      scan, std::vector<std::size_t>{},
      std::vector<AggSpec>{AggSpec::Sum(Col(0, type), "revenue")}));
  EXPECT_EQ(result.num_rows(), 1u);
}

TEST_F(SqlBindTest, OrderByDescWithLimitIsTopK) {
  auto result = MustRun(CountByFirstColumn(
      ScanOf(catalog(), "date", TruePredicate(), {"d_datekey"}),
      /*ascending=*/false, /*limit=*/3));
  ASSERT_EQ(result.num_rows(), 3u);
  EXPECT_GT(result.Row(0).GetInt64(0), result.Row(1).GetInt64(0));
  EXPECT_GT(result.Row(1).GetInt64(0), result.Row(2).GetInt64(0));
}

// ---------------------------------------------------------------------------
// End-to-end: the same star plan through every engine mode must match the
// reference executor (the sharing-is-transparent invariant).
// ---------------------------------------------------------------------------

class SqlEngineTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(SqlEngineTest, SqlStarQueryMatchesReferenceAcrossModes) {
  auto db = MakeTestDatabase();
  SHARING_CHECK_OK(
      ssb::GenerateAll(db->catalog(), db->buffer_pool(), 0.002, 7));
  EngineConfig config;
  config.mode = GetParam();
  config.fact_table = "lineorder";
  config.cjoin_levels = ssb::PipelineLevels();
  SharingEngine engine(db.get(), config);

  PlanNodeRef plan = StarRevenueByYear(*db->catalog(), 50);
  ReferenceExecutor ref(db->catalog());
  auto want = ref.Execute(*plan);
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want.value().num_rows(), 0u);
  auto got = engine.Execute(plan);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectResultsEquivalent(want.value(), got.value());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SqlEngineTest,
    ::testing::Values(EngineMode::kQueryCentric, EngineMode::kSpPush,
                      EngineMode::kSpPull, EngineMode::kSpAdaptive,
                      EngineMode::kGqp, EngineMode::kGqpSp),
    [](const auto& info) {
      std::string name(EngineModeToString(info.param));
      for (auto& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace sharing
