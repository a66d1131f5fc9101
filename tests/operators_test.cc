// Tests for the pipelined operators, cross-checked against the
// ReferenceExecutor (independent implementation).

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <thread>

#include "exec/explain.h"
#include "exec/operators.h"
#include "exec/reference_executor.h"
#include "qpipe/fifo_buffer.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::ExpectResultsEquivalent;
using testing::MakeTestDatabase;

/// Runs `plan` through the pipelined operators with plain FIFO wiring on
/// dedicated threads (no stages involved) and materializes the output.
class PipelineRunner {
 public:
  explicit PipelineRunner(Database* db) : db_(db) {}

  StatusOr<ResultSet> Run(const PlanNodeRef& plan) {
    ExecContext ctx;
    auto source = Launch(plan, &ctx);
    ResultSet result(plan->output_schema());
    while (PageRef page = source->Next()) result.AppendPage(*page);
    Status st = source->FinalStatus();
    for (auto& t : threads_) t.join();
    threads_.clear();
    if (!st.ok()) return st;
    return result;
  }

 private:
  PageSourceRef Launch(const PlanNodeRef& node, ExecContext* ctx) {
    auto out = std::make_shared<FifoBuffer>();
    switch (node->kind()) {
      case PlanKind::kScan: {
        auto* scan = static_cast<const ScanNode*>(node.get());
        Table* table = db_->catalog()->GetTable(scan->table_name()).value();
        threads_.emplace_back([=] {
          CircularScanGroup group(table);
          RunScan(*scan, table, group, ctx, out.get());
        });
        break;
      }
      case PlanKind::kJoin: {
        auto* join = static_cast<const JoinNode*>(node.get());
        auto build = Launch(join->build(), ctx);
        auto probe = Launch(join->probe(), ctx);
        threads_.emplace_back([=] {
          RunHashJoin(*join, build.get(), probe.get(), ctx, out.get());
        });
        break;
      }
      case PlanKind::kAggregate: {
        auto* agg = static_cast<const AggregateNode*>(node.get());
        auto input = Launch(agg->child(), ctx);
        threads_.emplace_back([=] {
          RunHashAggregate(*agg, input.get(), ctx, out.get());
        });
        break;
      }
      case PlanKind::kSort: {
        auto* sort = static_cast<const SortNode*>(node.get());
        auto input = Launch(sort->child(), ctx);
        threads_.emplace_back([=] {
          RunSort(*sort, input.get(), ctx, out.get());
        });
        break;
      }
    }
    return out;
  }

  Database* db_;
  std::vector<std::thread> threads_;
};

class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase();
    // "fact": 3000 rows, fk = id % 50, val = id * 0.5
    Schema fact_schema({Column::Int64("id"), Column::Int64("fk"),
                        Column::Double("val")});
    auto t = db_->catalog()->CreateTable("fact", fact_schema,
                                         db_->buffer_pool());
    ASSERT_TRUE(t.ok());
    TableAppender appender(t.value());
    for (int64_t i = 0; i < 3000; ++i) {
      auto row = appender.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value().SetInt64(0, i).SetInt64(1, i % 50).SetDouble(
          2, double(i) * 0.5);
    }
    ASSERT_TRUE(appender.Finish().ok());

    // "dim": 50 rows, dk = 0..49, name = D<k%7>
    Schema dim_schema({Column::Int64("dk"), Column::String("name", 4)});
    auto d = db_->catalog()->CreateTable("dim", dim_schema,
                                         db_->buffer_pool());
    ASSERT_TRUE(d.ok());
    TableAppender dim_appender(d.value());
    for (int64_t k = 0; k < 50; ++k) {
      auto row = dim_appender.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value().SetInt64(0, k).SetString(1, "D" + std::to_string(k % 7));
    }
    ASSERT_TRUE(dim_appender.Finish().ok());
  }

  void CheckAgainstReference(const PlanNodeRef& plan) {
    ReferenceExecutor ref(db_->catalog());
    auto want = ref.Execute(*plan);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    PipelineRunner runner(db_.get());
    auto got = runner.Run(plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectResultsEquivalent(want.value(), got.value());
  }

  Schema FactSchema() {
    return db_->catalog()->GetTable("fact").value()->schema();
  }
  Schema DimSchema() {
    return db_->catalog()->GetTable("dim").value()->schema();
  }

  PlanNodeRef FactScan(ExprRef pred) {
    return std::make_shared<ScanNode>("fact", FactSchema(), std::move(pred),
                                      std::vector<std::size_t>{0, 1, 2});
  }
  PlanNodeRef DimScan(ExprRef pred) {
    return std::make_shared<ScanNode>("dim", DimSchema(), std::move(pred),
                                      std::vector<std::size_t>{0, 1});
  }

  /// Creates table `name` (k int64, tag string(25), v double) whose row i
  /// has k = key(i), tag = "TAG#<i % 300>" and v = i * 0.25 - 100, and
  /// returns an unfiltered scan of all three columns.
  PlanNodeRef MakeKeyedTable(const std::string& name, int64_t rows,
                             const std::function<int64_t(int64_t)>& key) {
    Schema schema({Column::Int64("k"), Column::String("tag", 25),
                   Column::Double("v")});
    auto t = db_->catalog()->CreateTable(name, schema, db_->buffer_pool());
    EXPECT_TRUE(t.ok());
    TableAppender appender(t.value());
    for (int64_t i = 0; i < rows; ++i) {
      auto row = appender.AppendRow();
      EXPECT_TRUE(row.ok());
      row.value()
          .SetInt64(0, key(i))
          .SetString(1, "TAG#" + std::to_string(i % 300))
          .SetDouble(2, double(i) * 0.25 - 100.0);
    }
    EXPECT_TRUE(appender.Finish().ok());
    return std::make_shared<ScanNode>(name, schema, TruePredicate(),
                                      std::vector<std::size_t>{0, 1, 2});
  }

  std::size_t RowsOf(const PlanNodeRef& plan) {
    PipelineRunner runner(db_.get());
    auto got = runner.Run(plan);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? got.value().num_rows() : 0;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(OperatorsTest, ScanUnfilteredMatchesReference) {
  CheckAgainstReference(FactScan(TruePredicate()));
}

TEST_F(OperatorsTest, ScanFilteredMatchesReference) {
  CheckAgainstReference(FactScan(
      Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{777}))));
}

TEST_F(OperatorsTest, ScanEmptyResult) {
  auto plan = FactScan(
      Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{-1})));
  PipelineRunner runner(db_.get());
  auto got = runner.Run(plan);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().num_rows(), 0u);
}

TEST_F(OperatorsTest, ScanProjectionReorders) {
  auto plan = std::make_shared<ScanNode>("fact", FactSchema(),
                                         TruePredicate(),
                                         std::vector<std::size_t>{2, 0});
  CheckAgainstReference(plan);
}

TEST_F(OperatorsTest, HashJoinMatchesReference) {
  auto join = std::make_shared<JoinNode>(DimScan(TruePredicate()),
                                         FactScan(TruePredicate()), 0, 1);
  CheckAgainstReference(join);
}

TEST_F(OperatorsTest, HashJoinWithSelectiveBuildSide) {
  auto join = std::make_shared<JoinNode>(
      DimScan(Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{5}))),
      FactScan(TruePredicate()), 0, 1);
  CheckAgainstReference(join);
}

TEST_F(OperatorsTest, HashJoinEmptyBuildSide) {
  auto join = std::make_shared<JoinNode>(
      DimScan(Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{0}))),
      FactScan(TruePredicate()), 0, 1);
  PipelineRunner runner(db_.get());
  auto got = runner.Run(PlanNodeRef(join));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().num_rows(), 0u);
}

TEST_F(OperatorsTest, AggregateGroupedMatchesReference) {
  auto agg = std::make_shared<AggregateNode>(
      FactScan(TruePredicate()), std::vector<std::size_t>{1},
      std::vector<AggSpec>{
          AggSpec::Sum(Col(2, ValueType::kDouble), "sum_val"),
          AggSpec::Avg(Col(2, ValueType::kDouble), "avg_val"),
          AggSpec::Min(Col(2, ValueType::kDouble), "min_val"),
          AggSpec::Max(Col(2, ValueType::kDouble), "max_val"),
          AggSpec::Count("n")});
  CheckAgainstReference(agg);
}

TEST_F(OperatorsTest, AggregateGlobalMatchesReference) {
  auto agg = std::make_shared<AggregateNode>(
      FactScan(TruePredicate()), std::vector<std::size_t>{},
      std::vector<AggSpec>{AggSpec::Sum(Col(0, ValueType::kInt64), "s"),
                           AggSpec::Count("n")});
  CheckAgainstReference(agg);
}

TEST_F(OperatorsTest, AggregateCorrectSums) {
  auto agg = std::make_shared<AggregateNode>(
      FactScan(TruePredicate()), std::vector<std::size_t>{},
      std::vector<AggSpec>{AggSpec::Sum(Col(0, ValueType::kInt64), "s"),
                           AggSpec::Count("n")});
  PipelineRunner runner(db_.get());
  auto got = runner.Run(PlanNodeRef(agg));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(got.value().Row(0).GetDouble(0), 3000.0 * 2999.0 / 2.0);
  EXPECT_EQ(got.value().Row(0).GetInt64(1), 3000);
}

TEST_F(OperatorsTest, SortAscendingMatchesReference) {
  auto sort = std::make_shared<SortNode>(
      FactScan(Cmp(CmpOp::kLt, Col(0, ValueType::kInt64),
                   Lit(int64_t{500}))),
      std::vector<SortKey>{{2, false}, {0, true}});
  CheckAgainstReference(sort);
}

TEST_F(OperatorsTest, SortProducesOrderedOutput) {
  auto sort = std::make_shared<SortNode>(FactScan(TruePredicate()),
                                         std::vector<SortKey>{{0, false}});
  PipelineRunner runner(db_.get());
  auto got = runner.Run(PlanNodeRef(sort));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().num_rows(), 3000u);
  for (std::size_t i = 1; i < got.value().num_rows(); ++i) {
    EXPECT_GE(got.value().Row(i - 1).GetInt64(0),
              got.value().Row(i).GetInt64(0));
  }
}

TEST_F(OperatorsTest, JoinAggPipelineMatchesReference) {
  auto join = std::make_shared<JoinNode>(DimScan(TruePredicate()),
                                         FactScan(TruePredicate()), 0, 1);
  std::size_t name_col = join->output_schema().ColumnIndex("name").value();
  std::size_t val_col = join->output_schema().ColumnIndex("val").value();
  auto agg = std::make_shared<AggregateNode>(
      join, std::vector<std::size_t>{name_col},
      std::vector<AggSpec>{
          AggSpec::Sum(Col(val_col, ValueType::kDouble), "sum_val"),
          AggSpec::Count("n")});
  CheckAgainstReference(agg);
}

// ---------------------------------------------------------------------------
// Kernel edge cases: the flat hash table and the batched update loops.
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, AggregateMinMaxSeedFromFirstValue) {
  // All-negative and all-large inputs: a zero seed would win max (resp.
  // min) and be wrong.
  ExprRef neg = Arith(ArithOp::kSub, Lit(-1.0), Col(2, ValueType::kDouble));
  ExprRef big = Arith(ArithOp::kAdd, Col(2, ValueType::kDouble), Lit(5.0));
  std::vector<AggSpec> aggs = {
      AggSpec::Min(neg, "min_neg"), AggSpec::Max(neg, "max_neg"),
      AggSpec::Min(big, "min_big"), AggSpec::Max(big, "max_big")};
  CheckAgainstReference(std::make_shared<AggregateNode>(
      FactScan(TruePredicate()), std::vector<std::size_t>{1}, aggs));

  auto global = std::make_shared<AggregateNode>(
      FactScan(TruePredicate()), std::vector<std::size_t>{}, aggs);
  CheckAgainstReference(global);
  PipelineRunner runner(db_.get());
  auto got = runner.Run(PlanNodeRef(global));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().num_rows(), 1u);
  EXPECT_EQ(got.value().Row(0).GetDouble(0), -1.0 - 2999 * 0.5);
  EXPECT_EQ(got.value().Row(0).GetDouble(1), -1.0);
  EXPECT_EQ(got.value().Row(0).GetDouble(2), 5.0);
  EXPECT_EQ(got.value().Row(0).GetDouble(3), 5.0 + 2999 * 0.5);
}

TEST_F(OperatorsTest, AggregateWideStringGroupKey) {
  PlanNodeRef wide = MakeKeyedTable("wide", 5000, [](int64_t i) {
    return i % 7 - 3;
  });
  auto aggs = std::vector<AggSpec>{
      AggSpec::Sum(Col(2, ValueType::kDouble), "s"),
      AggSpec::Max(Col(2, ValueType::kDouble), "mx"), AggSpec::Count("n")};
  // 25-byte key: the byte-arena path.
  CheckAgainstReference(std::make_shared<AggregateNode>(
      wide, std::vector<std::size_t>{1}, aggs));
  // 33-byte key over two adjacent columns, and a 25+8 key out of order.
  CheckAgainstReference(std::make_shared<AggregateNode>(
      wide, std::vector<std::size_t>{0, 1}, aggs));
  CheckAgainstReference(std::make_shared<AggregateNode>(
      wide, std::vector<std::size_t>{1, 0}, aggs));
  EXPECT_EQ(RowsOf(std::make_shared<AggregateNode>(
                wide, std::vector<std::size_t>{1}, aggs)),
            300u);
}

TEST_F(OperatorsTest, AggregateManyGroupsGrowsTable) {
  constexpr int64_t kGroups = 120'000;
  PlanNodeRef many = MakeKeyedTable("many", kGroups, [](int64_t i) {
    return i * 7919 - 500'000'000;  // distinct, half of them negative
  });
  auto agg = std::make_shared<AggregateNode>(
      many, std::vector<std::size_t>{0},
      std::vector<AggSpec>{AggSpec::Sum(Col(2, ValueType::kDouble), "s"),
                           AggSpec::Min(Col(2, ValueType::kDouble), "mn"),
                           AggSpec::Count("n")});
  CheckAgainstReference(agg);
  EXPECT_EQ(RowsOf(agg), std::size_t(kGroups));
}

TEST_F(OperatorsTest, AggregateZeroInputRows) {
  ExprRef none = Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{0}));
  auto aggs = std::vector<AggSpec>{
      AggSpec::Sum(Col(2, ValueType::kDouble), "s"),
      AggSpec::Min(Col(2, ValueType::kDouble), "mn"), AggSpec::Count("n")};
  for (auto group_by :
       {std::vector<std::size_t>{1}, std::vector<std::size_t>{}}) {
    auto agg =
        std::make_shared<AggregateNode>(FactScan(none), group_by, aggs);
    CheckAgainstReference(agg);
    EXPECT_EQ(RowsOf(agg), 0u);
  }
}

TEST_F(OperatorsTest, AggregateCountOnly) {
  for (auto group_by :
       {std::vector<std::size_t>{1}, std::vector<std::size_t>{}}) {
    CheckAgainstReference(std::make_shared<AggregateNode>(
        FactScan(TruePredicate()), group_by,
        std::vector<AggSpec>{AggSpec::Count("n")}));
  }
}

TEST_F(OperatorsTest, HashJoinDuplicateBuildKeysFanOut) {
  // Build on fact.fk (60 rows per key), probe with the 50 dim rows.
  auto join = std::make_shared<JoinNode>(FactScan(TruePredicate()),
                                         DimScan(TruePredicate()), 1, 0);
  CheckAgainstReference(join);
  EXPECT_EQ(RowsOf(join), 3000u);
}

TEST_F(OperatorsTest, HashJoinProbeKeysMatchNothing) {
  auto small_build =
      DimScan(Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{5})));
  auto none = std::make_shared<JoinNode>(
      small_build,
      FactScan(Cmp(CmpOp::kGe, Col(1, ValueType::kInt64), Lit(int64_t{5}))),
      0, 1);
  CheckAgainstReference(none);
  EXPECT_EQ(RowsOf(none), 0u);
  auto some = std::make_shared<JoinNode>(small_build,
                                         FactScan(TruePredicate()), 0, 1);
  CheckAgainstReference(some);
  EXPECT_EQ(RowsOf(some), 300u);
}

TEST_F(OperatorsTest, HashJoinNegativeAndInt64MinKeys) {
  const int64_t keys[] = {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::min() + 1,
                          -1,
                          0,
                          1,
                          -7,
                          std::numeric_limits<int64_t>::max()};
  PlanNodeRef edge =
      MakeKeyedTable("edge", 70, [&](int64_t i) { return keys[i % 7]; });
  auto join = std::make_shared<JoinNode>(edge, edge, 0, 0);
  CheckAgainstReference(join);
  EXPECT_EQ(RowsOf(join), 7u * 10u * 10u);
}

TEST_F(OperatorsTest, HashJoinLargeBuildGrowsDirectory) {
  PlanNodeRef big = MakeKeyedTable("big", 120'000, [](int64_t i) {
    return i * 7919 - 500'000'000;
  });
  auto probe = std::make_shared<ScanNode>(
      "big", big->output_schema(),
      Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{0})),
      std::vector<std::size_t>{0, 2});
  auto join = std::make_shared<JoinNode>(big, probe, 0, 0);
  CheckAgainstReference(join);
  EXPECT_EQ(RowsOf(join), 63'140u);  // keys below zero: i <= 500e6 / 7919
}

/// Forwards to `inner`, counting calls to the batched entry points.
class BatchSpy final : public Expr {
 public:
  explicit BatchSpy(ExprRef inner)
      : Expr(inner->kind(), inner->output_type()), inner_(std::move(inner)) {}

  double EvalDouble(TupleRef row) const override {
    return inner_->EvalDouble(row);
  }
  int64_t EvalInt64(TupleRef row) const override {
    return inner_->EvalInt64(row);
  }
  bool EvalBool(TupleRef row) const override { return inner_->EvalBool(row); }
  std::string Canonical() const override { return inner_->Canonical(); }

  void EvalDoubleBatch(const uint8_t* rows, std::size_t stride, std::size_t n,
                       const Schema& schema, double* out) const override {
    ++batch_calls;
    inner_->EvalDoubleBatch(rows, stride, n, schema, out);
  }
  std::size_t EvalBoolBatch(const uint8_t* rows, std::size_t stride,
                            const Schema& schema, uint32_t* sel,
                            std::size_t n) const override {
    ++batch_calls;
    return inner_->EvalBoolBatch(rows, stride, schema, sel, n);
  }

  mutable std::atomic<int> batch_calls{0};

 private:
  ExprRef inner_;
};

TEST_F(OperatorsTest, ReferenceExecutorStaysPerRow) {
  auto pred = std::make_shared<BatchSpy>(
      Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{777})));
  auto input = std::make_shared<BatchSpy>(Col(2, ValueType::kDouble));
  auto agg = std::make_shared<AggregateNode>(
      FactScan(pred), std::vector<std::size_t>{1},
      std::vector<AggSpec>{AggSpec::Sum(input, "s")});

  ReferenceExecutor ref(db_->catalog());
  ASSERT_TRUE(ref.Execute(*agg).ok());
  EXPECT_EQ(pred->batch_calls.load(), 0);
  EXPECT_EQ(input->batch_calls.load(), 0);

  CheckAgainstReference(agg);  // the operators take the batched paths
  EXPECT_GT(pred->batch_calls.load(), 0);
  EXPECT_GT(input->batch_calls.load(), 0);
}

TEST_F(OperatorsTest, CancelledScanAborts) {
  auto plan = FactScan(TruePredicate());
  auto* scan = static_cast<const ScanNode*>(plan.get());
  Table* table = db_->catalog()->GetTable("fact").value();
  ExecContext ctx;
  ctx.Cancel();
  FifoBuffer out;
  CircularScanGroup group(table);
  Status st = RunScan(*scan, table, group, &ctx, &out);
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_EQ(out.Next(), nullptr);
  EXPECT_EQ(out.FinalStatus().code(), StatusCode::kAborted);
}

TEST_F(OperatorsTest, AbandonedConsumerStopsProducer) {
  auto plan = FactScan(TruePredicate());
  auto* scan = static_cast<const ScanNode*>(plan.get());
  Table* table = db_->catalog()->GetTable("fact").value();
  ExecContext ctx;
  auto out = std::make_shared<FifoBuffer>(2);
  out->CancelReader();
  CircularScanGroup group(table);
  Status st = RunScan(*scan, table, group, &ctx, out.get());
  EXPECT_EQ(st.code(), StatusCode::kAborted);
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

/// A reader that reports a fixed PagesDelivered() and yields nothing.
class DeliveredSource : public PageSource {
 public:
  explicit DeliveredSource(std::size_t n) : n_(n) {}
  std::size_t NextBatch(std::size_t, std::vector<PageRef>*) override {
    return 0;
  }
  Status FinalStatus() const override { return Status::OK(); }
  std::size_t PagesDelivered() const override { return n_; }

 private:
  std::size_t n_;
};

TEST(ExplainTest, SharedAndCopiedPagesDeriveFromRoleAndTransport) {
  using Role = QueryExplain::StageRecord::Role;
  ExplainState state;
  auto add = [&](const char* stage, uint64_t sig, Role role,
                 const char* transport, const char* decided_by,
                 double confidence, bool spill,
                 const std::shared_ptr<PageSource>& source) {
    ExplainState::PendingStage p;
    p.stage = stage;
    p.signature = sig;
    p.role = role;
    p.transport = transport;
    p.decided_by = decided_by;
    p.confidence = confidence;
    p.spill_preferred = spill;
    p.source = source;
    return state.AddStage(std::move(p));
  };
  auto pull_satellite = std::make_shared<DeliveredSource>(7);
  auto push_satellite = std::make_shared<DeliveredSource>(5);
  auto host = std::make_shared<DeliveredSource>(9);
  add("TSCAN", 0xabc, Role::kSatellite, "pull", "attach", 0, false,
      pull_satellite);
  add("JOIN", 0xdef, Role::kSatellite, "push", "model", 0.625, false,
      push_satellite);
  state.AddRunMicros(
      add("AGG", 0x123, Role::kHost, "pull", "model", 0.8, true, host), 1500);
  // A reader gone before Build reports no pages, shared or otherwise.
  add("TSCAN", 0x456, Role::kSatellite, "pull", "attach", 0, false,
      std::make_shared<DeliveredSource>(3));

  const QueryExplain explain = state.Build(42);
  ASSERT_EQ(explain.stages.size(), 4u);
  EXPECT_EQ(explain.stages[0].pages_shared(), 7);
  EXPECT_EQ(explain.stages[0].pages_copied(), 0);
  EXPECT_EQ(explain.stages[1].pages_shared(), 0);
  EXPECT_EQ(explain.stages[1].pages_copied(), 5);
  EXPECT_EQ(explain.stages[2].pages_shared(), 0);
  EXPECT_EQ(explain.stages[2].pages_copied(), 0);

  // Both renderings are pinned byte for byte: admin and bench consumers
  // parse them.
  EXPECT_EQ(
      explain.ToJson(),
      R"({"query_id":42,"total_micros":0,"stages":[)"
      R"({"stage":"TSCAN","signature":"0xabc","role":"satellite","transport":"pull","decided_by":"attach","spill_preferred":false,"confidence":0.000,"run_micros":0,"pages_delivered":7,"pages_shared":7,"pages_copied":0},)"
      R"({"stage":"JOIN","signature":"0xdef","role":"satellite","transport":"push","decided_by":"model","spill_preferred":false,"confidence":0.625,"run_micros":0,"pages_delivered":5,"pages_shared":0,"pages_copied":5},)"
      R"({"stage":"AGG","signature":"0x123","role":"host","transport":"pull","decided_by":"model","spill_preferred":true,"confidence":0.800,"run_micros":1500,"pages_delivered":9,"pages_shared":0,"pages_copied":0},)"
      R"({"stage":"TSCAN","signature":"0x456","role":"satellite","transport":"pull","decided_by":"attach","spill_preferred":false,"confidence":0.000,"run_micros":0,"pages_delivered":0,"pages_shared":0,"pages_copied":0}]})");
  EXPECT_EQ(explain.ToString(),
            "query 42 (0us)\n"
            "  TSCAN sig=0xabc satellite/pull by=attach run=0us pages=7 "
            "shared=7\n"
            "  JOIN sig=0xdef satellite/push by=model run=0us pages=5 "
            "copied=5\n"
            "  AGG sig=0x123 host/pull by=model run=1500us pages=9 spill\n"
            "  TSCAN sig=0x456 satellite/pull by=attach run=0us pages=0");
}

}  // namespace
}  // namespace sharing
