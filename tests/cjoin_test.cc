// Tests for the CJOIN module: star-plan recognition, the shared dimension
// hash tables, pipeline correctness against the reference executor,
// admission/departure bookkeeping, fact-scan readahead, and GQP+SP
// integration.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <latch>
#include <thread>

#include "cjoin/cjoin_stage.h"
#include "cjoin/pipeline.h"
#include "cjoin/star_query.h"
#include "common/fault.h"
#include "core/sharing_engine.h"
#include "exec/reference_executor.h"
#include "io/io_scheduler.h"
#include "qpipe/fifo_buffer.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::ExpectResultsEquivalent;
using testing::MakeTestDatabase;

/// A miniature star schema: fact(id, d1k, d2k, v), dim1(k, name),
/// dim2(k, tag, weight).
class CJoinTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildStar(/*frames=*/16384, /*fact_rows=*/4000); }

  // Fault schedules are process-global; never leak one into the next test.
  void TearDown() override { FaultRegistry::Global().Disarm(); }

  /// (Re)creates the database with `frames` buffer-pool frames and the
  /// star schema with `fact_rows` fact rows (32-byte rows, 255 a page).
  void BuildStar(std::size_t frames, int64_t fact_rows) {
    db_ = MakeTestDatabase(frames);

    Schema fact({Column::Int64("id"), Column::Int64("d1k"),
                 Column::Int64("d2k"), Column::Double("v")});
    auto f = db_->catalog()->CreateTable("fact", fact, db_->buffer_pool());
    ASSERT_TRUE(f.ok());
    TableAppender fa(f.value());
    for (int64_t i = 0; i < fact_rows; ++i) {
      auto row = fa.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value()
          .SetInt64(0, i)
          .SetInt64(1, i % 30)
          .SetInt64(2, i % 17)
          .SetDouble(3, double(i % 101));
    }
    ASSERT_TRUE(fa.Finish().ok());

    Schema dim1({Column::Int64("k"), Column::String("name", 6)});
    auto d1 = db_->catalog()->CreateTable("dim1", dim1, db_->buffer_pool());
    ASSERT_TRUE(d1.ok());
    TableAppender d1a(d1.value());
    for (int64_t k = 0; k < 30; ++k) {
      auto row = d1a.AppendRow();
      ASSERT_TRUE(row.ok());
      std::string name = "N" + std::to_string(k % 4);
      row.value().SetInt64(0, k).SetString(1, name);
    }
    ASSERT_TRUE(d1a.Finish().ok());

    Schema dim2({Column::Int64("k"), Column::String("tag", 4),
                 Column::Double("weight")});
    auto d2 = db_->catalog()->CreateTable("dim2", dim2, db_->buffer_pool());
    ASSERT_TRUE(d2.ok());
    TableAppender d2a(d2.value());
    for (int64_t k = 0; k < 17; ++k) {
      auto row = d2a.AppendRow();
      ASSERT_TRUE(row.ok());
      std::string tag = "T" + std::to_string(k % 3);
      row.value().SetInt64(0, k).SetString(1, tag).SetDouble(2, k * 1.5);
    }
    ASSERT_TRUE(d2a.Finish().ok());
  }

  Schema FactSchema() {
    return db_->catalog()->GetTable("fact").value()->schema();
  }
  Schema Dim1Schema() {
    return db_->catalog()->GetTable("dim1").value()->schema();
  }
  Schema Dim2Schema() {
    return db_->catalog()->GetTable("dim2").value()->schema();
  }

  std::vector<CJoinLevelSpec> Levels() {
    return {{"dim1", 1, 0}, {"dim2", 2, 0}};
  }

  /// join(dim1, fact) star plan (one dimension).
  PlanNodeRef OneDimPlan(int64_t name_mod = -1) {
    ExprRef pred = name_mod < 0
                       ? TruePredicate()
                       : Cmp(CmpOp::kEq,
                             Arith(ArithOp::kMod, Col(0, ValueType::kInt64),
                                   Lit(int64_t{4})),
                             Lit(name_mod));
    auto d = std::make_shared<ScanNode>("dim1", Dim1Schema(), pred,
                                        std::vector<std::size_t>{0, 1});
    auto f = std::make_shared<ScanNode>("fact", FactSchema(),
                                        TruePredicate(),
                                        std::vector<std::size_t>{1, 3});
    return std::make_shared<JoinNode>(d, f, 0, 0);
  }

  /// join(dim2, join(dim1, fact)) star plan with predicates on both dims
  /// and on the fact table.
  PlanNodeRef TwoDimPlan(int64_t fact_lt = 3000) {
    auto d1 = std::make_shared<ScanNode>(
        "dim1", Dim1Schema(),
        Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{20})),
        std::vector<std::size_t>{0, 1});
    auto f = std::make_shared<ScanNode>(
        "fact", FactSchema(),
        Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(fact_lt)),
        std::vector<std::size_t>{0, 1, 2, 3});
    auto j1 = std::make_shared<JoinNode>(d1, f, 0, 1);
    auto d2 = std::make_shared<ScanNode>(
        "dim2", Dim2Schema(),
        Cmp(CmpOp::kGe, Col(2, ValueType::kDouble), Lit(3.0)),
        std::vector<std::size_t>{0, 1});
    std::size_t d2k = j1->output_schema().ColumnIndex("d2k").value();
    return std::make_shared<JoinNode>(d2, j1, 0, d2k);
  }

  ResultSet Reference(const PlanNodeRef& plan) {
    ReferenceExecutor ref(db_->catalog());
    auto r = ref.Execute(*plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  /// join(dim2, fact) star plan with predicates on the dimension and on
  /// the fact table (dim1's level stays unused).
  PlanNodeRef Dim2Plan(double weight_ge, double v_lt) {
    auto d = std::make_shared<ScanNode>(
        "dim2", Dim2Schema(),
        Cmp(CmpOp::kGe, Col(2, ValueType::kDouble), Lit(weight_ge)),
        std::vector<std::size_t>{0, 2});
    auto f = std::make_shared<ScanNode>(
        "fact", FactSchema(),
        Cmp(CmpOp::kLt, Col(3, ValueType::kDouble), Lit(v_lt)),
        std::vector<std::size_t>{0, 2, 3});
    return std::make_shared<JoinNode>(d, f, 0, 1);
  }

  /// Drops every cached page, then reads back the dimension pages and the
  /// fact pages for which `keep_fact_page` holds: the next fact reads of
  /// the others go to disk.
  void ColdFactWarmDimensions(
      const std::function<bool(std::size_t)>& keep_fact_page =
          [](std::size_t) { return false; }) {
    BufferPool* pool = db_->buffer_pool();
    ASSERT_TRUE(pool->EvictAll().ok());
    for (const char* name : {"dim1", "dim2", "fact"}) {
      const Table* table = db_->catalog()->GetTable(name).value();
      for (std::size_t p = 0; p < table->num_pages(); ++p) {
        if (table == FactTable() && !keep_fact_page(p)) continue;
        ASSERT_TRUE(pool->FetchPage(table->page_id(p)).ok());
      }
    }
  }

  const Table* FactTable() {
    return db_->catalog()->GetTable("fact").value();
  }

  int64_t Counted(const char* name) {
    return db_->metrics()->GetCounter(name)->Get();
  }

  /// Runs a star plan through a fresh CJOIN pipeline and materializes.
  StatusOr<ResultSet> RunThroughCJoin(CJoinPipeline* pipeline,
                                      const PlanNodeRef& plan,
                                      ExecContextRef ctx = nullptr) {
    auto spec_or = StarQueryFromPlan(*plan, "fact");
    SHARING_RETURN_NOT_OK(spec_or.status());
    auto sink = std::make_shared<FifoBuffer>(64);
    if (ctx == nullptr) ctx = std::make_shared<ExecContext>(1, db_->metrics());
    std::thread worker([&] {
      pipeline->ExecuteQuery(spec_or.value(), ctx, sink);
    });
    ResultSet result(plan->output_schema());
    while (PageRef page = sink->Next()) result.AppendPage(*page);
    Status st = sink->FinalStatus();
    worker.join();
    if (!st.ok()) return st;
    return result;
  }

  /// Rows of `ht` with any query bit of their own.
  static std::size_t CountGrantedRows(const DimensionHashTable& ht) {
    std::size_t n = 0;
    for (uint32_t r = 0; r < ht.NumRows(); ++r) {
      uint64_t any = 0;
      for (std::size_t w = 0; w < ht.words(); ++w) any |= ht.RowBits(r, w);
      n += any != 0;
    }
    return n;
  }

  /// Whether the row of `key` carries query `bit` itself.
  static bool HasBit(const DimensionHashTable& ht, int64_t key,
                     std::size_t bit) {
    const uint32_t r = ht.Find(key);
    EXPECT_NE(r, DimensionHashTable::kNoRow) << "key " << key;
    return r != DimensionHashTable::kNoRow &&
           ((ht.RowBits(r, bit / 64) >> (bit % 64)) & 1) != 0;
  }

  /// Every bitmap word of `ht`: rows, then all-rows, then neutral.
  static std::vector<uint64_t> AllWords(const DimensionHashTable& ht) {
    std::vector<uint64_t> words;
    for (uint32_t r = 0; r < ht.NumRows(); ++r) {
      for (std::size_t w = 0; w < ht.words(); ++w) {
        words.push_back(ht.RowBits(r, w));
      }
    }
    for (std::size_t w = 0; w < ht.words(); ++w) {
      words.push_back(ht.AllRowsBits(w));
      words.push_back(ht.NeutralBits(w));
    }
    return words;
  }

  std::unique_ptr<Database> db_;
};

// ---------------------------------------------------------------------------
// StarQueryFromPlan
// ---------------------------------------------------------------------------

TEST_F(CJoinTest, RecognizesOneDimStar) {
  auto spec_or = StarQueryFromPlan(*OneDimPlan(), "fact");
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  const auto& spec = spec_or.value();
  EXPECT_EQ(spec.fact_table, "fact");
  ASSERT_EQ(spec.dims.size(), 1u);
  EXPECT_EQ(spec.dims[0].dim_table, "dim1");
  EXPECT_EQ(spec.dims[0].fk_col_in_fact, 1u);
  EXPECT_EQ(spec.dims[0].pk_col_in_dim, 0u);
  // Output order: dim block then fact block (join output = build ⊕ probe).
  EXPECT_EQ(spec.output_order, (std::vector<int>{0, -1}));
}

TEST_F(CJoinTest, RecognizesTwoDimStarChain) {
  auto spec_or = StarQueryFromPlan(*TwoDimPlan(), "fact");
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  const auto& spec = spec_or.value();
  ASSERT_EQ(spec.dims.size(), 2u);
  EXPECT_EQ(spec.dims[0].dim_table, "dim1");
  EXPECT_EQ(spec.dims[1].dim_table, "dim2");
  EXPECT_EQ(spec.output_order, (std::vector<int>{1, 0, -1}));
}

TEST_F(CJoinTest, DerivedSchemaMatchesJoinTree) {
  auto plan = TwoDimPlan();
  auto spec = StarQueryFromPlan(*plan, "fact").value();
  auto schema_or = spec.OutputSchema(*db_->catalog());
  ASSERT_TRUE(schema_or.ok());
  EXPECT_TRUE(schema_or.value() == plan->output_schema())
      << schema_or.value().ToString() << " vs "
      << plan->output_schema().ToString();
}

TEST_F(CJoinTest, RejectsNonStarShapes) {
  // Aggregate root.
  auto agg = std::make_shared<AggregateNode>(
      OneDimPlan(), std::vector<std::size_t>{},
      std::vector<AggSpec>{AggSpec::Count("n")});
  EXPECT_FALSE(StarQueryFromPlan(*agg, "fact").ok());

  // Wrong fact table name.
  EXPECT_FALSE(StarQueryFromPlan(*OneDimPlan(), "other").ok());

  // Dim-dim join (probe side has no fact scan).
  auto d1 = std::make_shared<ScanNode>("dim1", Dim1Schema(),
                                       TruePredicate(),
                                       std::vector<std::size_t>{0, 1});
  auto d2 = std::make_shared<ScanNode>("dim2", Dim2Schema(),
                                       TruePredicate(),
                                       std::vector<std::size_t>{0, 1});
  auto dd = std::make_shared<JoinNode>(d1, d2, 0, 0);
  EXPECT_FALSE(StarQueryFromPlan(*dd, "fact").ok());
}

TEST_F(CJoinTest, SpecSignatureStable) {
  auto a = StarQueryFromPlan(*TwoDimPlan(), "fact").value();
  auto b = StarQueryFromPlan(*TwoDimPlan(), "fact").value();
  auto c = StarQueryFromPlan(*TwoDimPlan(2000), "fact").value();
  EXPECT_EQ(a.Signature(), b.Signature());
  EXPECT_NE(a.Signature(), c.Signature());
}

// ---------------------------------------------------------------------------
// DimensionHashTable
// ---------------------------------------------------------------------------

TEST_F(CJoinTest, DimensionTableAdmitProbeRemove) {
  Table* dim1 = db_->catalog()->GetTable("dim1").value();
  DimensionHashTable ht(dim1, 0, 8);

  auto pred = Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{10}));
  auto sel = ht.Select(*pred);
  ASSERT_TRUE(sel.ok());
  ht.Grant(2, sel.value());
  EXPECT_EQ(CountGrantedRows(ht), 10u);

  ASSERT_NE(ht.Find(5), DimensionHashTable::kNoRow);
  EXPECT_TRUE(HasBit(ht, 5, 2));
  EXPECT_FALSE(HasBit(ht, 15, 2));

  // Second query with an overlapping predicate shares rows.
  auto pred2 = Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{20}));
  auto sel2 = ht.Select(*pred2);
  ASSERT_TRUE(sel2.ok());
  ht.Grant(5, sel2.value());
  EXPECT_EQ(CountGrantedRows(ht), 20u);
  EXPECT_TRUE(HasBit(ht, 5, 2));
  EXPECT_TRUE(HasBit(ht, 5, 5));
  EXPECT_FALSE(HasBit(ht, 15, 2));

  // Departure of query 2 clears its bits; rows only it used go empty.
  ht.Revoke(2, sel.value());
  EXPECT_FALSE(HasBit(ht, 5, 2));
  EXPECT_TRUE(HasBit(ht, 5, 5));
  ht.Revoke(5, sel2.value());
  EXPECT_EQ(CountGrantedRows(ht), 0u);
}

TEST_F(CJoinTest, DimensionTableAllRowsSelectionUsesTheLevelBitmap) {
  Table* dim1 = db_->catalog()->GetTable("dim1").value();
  DimensionHashTable ht(dim1, 0, 70);  // two bitmap words
  EXPECT_EQ(ht.NumRows(), 0u) << "loaded lazily, on the first Select";

  auto sel = ht.Select(*TruePredicate());
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(ht.NumRows(), 30u);
  EXPECT_TRUE(sel.value().all);
  EXPECT_TRUE(sel.value().rows.empty());

  ht.Grant(66, sel.value());
  EXPECT_EQ(ht.AllRowsBits(1), uint64_t{1} << 2);
  EXPECT_EQ(ht.AllRowsBits(0), 0u);
  EXPECT_EQ(CountGrantedRows(ht), 0u) << "no per-row bit for all-rows";
  ht.Revoke(66, sel.value());
  EXPECT_EQ(ht.AllRowsBits(1), 0u);
}

TEST_F(CJoinTest, DimensionTableAbsentAndDuplicateKeys) {
  Schema schema({Column::Int64("k"), Column::Int64("payload")});
  auto t = db_->catalog()->CreateTable("dupdim", schema, db_->buffer_pool());
  ASSERT_TRUE(t.ok());
  TableAppender append(t.value());
  for (auto [k, payload] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 10}, {2, 20}, {1, 11}, {3, 30}, {2, 21}}) {
    auto row = append.AppendRow();
    ASSERT_TRUE(row.ok());
    row.value().SetInt64(0, k).SetInt64(1, payload);
  }
  ASSERT_TRUE(append.Finish().ok());

  DimensionHashTable ht(t.value(), 0, 8);
  // payload >= 11 keeps rows {2,20} and {3,30} of the indexed first
  // rows; the duplicates {1,11} and {2,21} are never indexed.
  auto sel = ht.Select(
      *Cmp(CmpOp::kGe, Col(1, ValueType::kInt64), Lit(int64_t{11})));
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(ht.NumRows(), 3u);
  EXPECT_EQ(sel.value().rows.size(), 2u);
  EXPECT_FALSE(sel.value().all);

  for (auto [k, payload] :
       std::vector<std::pair<int64_t, int64_t>>{{1, 10}, {2, 20}, {3, 30}}) {
    const uint32_t r = ht.Find(k);
    ASSERT_NE(r, DimensionHashTable::kNoRow) << k;
    EXPECT_EQ(TupleRef(ht.row(r), &t.value()->schema()).GetInt64(1),
              payload)
        << "the first row of key " << k << " wins";
  }
  EXPECT_EQ(ht.Find(4), DimensionHashTable::kNoRow);
  EXPECT_EQ(ht.Find(-1), DimensionHashTable::kNoRow);

  ht.Grant(1, sel.value());
  EXPECT_FALSE(HasBit(ht, 1, 1));
  EXPECT_TRUE(HasBit(ht, 2, 1));
  EXPECT_TRUE(HasBit(ht, 3, 1));
}

TEST_F(CJoinTest, DimensionTableRevokeRestoresEveryWord) {
  Table* dim2 = db_->catalog()->GetTable("dim2").value();
  DimensionHashTable ht(dim2, 0, 128);
  auto even = ht.Select(*Cmp(CmpOp::kEq,
                             Arith(ArithOp::kMod, Col(0, ValueType::kInt64),
                                   Lit(int64_t{2})),
                             Lit(int64_t{0})));
  auto all = ht.Select(*TruePredicate());
  auto low = ht.Select(
      *Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{5})));
  ASSERT_TRUE(even.ok() && all.ok() && low.ok());

  // Other queries' bits, in both words, stay put across the revocation.
  ht.Grant(3, even.value());
  ht.Grant(100, low.value());
  ht.Grant(64, all.value());
  ht.SetNeutral(7, true);
  const std::vector<uint64_t> before = AllWords(ht);

  // Query 70 joins this level twice and query 9 not at all.
  ht.Grant(70, even.value());
  ht.Grant(70, low.value());
  ht.Grant(71, all.value());
  ht.SetNeutral(9, true);
  EXPECT_NE(AllWords(ht), before);
  ht.Revoke(70, even.value());
  ht.Revoke(70, low.value());
  ht.Revoke(71, all.value());
  ht.SetNeutral(9, false);
  EXPECT_EQ(AllWords(ht), before);
}

// ---------------------------------------------------------------------------
// Pipeline correctness
// ---------------------------------------------------------------------------

TEST_F(CJoinTest, OneDimQueryMatchesReference) {
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), CJoinOptions{},
                         db_->metrics());
  auto plan = OneDimPlan();
  auto got = RunThroughCJoin(&pipeline, plan);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectResultsEquivalent(Reference(plan), got.value());
}

TEST_F(CJoinTest, TwoDimQueryWithPredicatesMatchesReference) {
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), CJoinOptions{},
                         db_->metrics());
  auto plan = TwoDimPlan();
  auto got = RunThroughCJoin(&pipeline, plan);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectResultsEquivalent(Reference(plan), got.value());
}

TEST_F(CJoinTest, SubsetDimQueryUnaffectedByOtherLevels) {
  // A query joining only dim1 must pass through the dim2 level untouched
  // (neutral bits), even while another query uses dim2.
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), CJoinOptions{},
                         db_->metrics());
  auto plan1 = OneDimPlan();
  auto plan2 = TwoDimPlan();

  auto spec1 = StarQueryFromPlan(*plan1, "fact").value();
  auto spec2 = StarQueryFromPlan(*plan2, "fact").value();
  auto sink1 = std::make_shared<FifoBuffer>(64);
  auto sink2 = std::make_shared<FifoBuffer>(64);
  auto ctx = std::make_shared<ExecContext>(1, db_->metrics());

  std::thread w1([&] { pipeline.ExecuteQuery(spec1, ctx, sink1); });
  std::thread w2([&] { pipeline.ExecuteQuery(spec2, ctx, sink2); });

  ResultSet r1(plan1->output_schema()), r2(plan2->output_schema());
  std::thread c2([&] {
    while (PageRef page = sink2->Next()) r2.AppendPage(*page);
  });
  while (PageRef page = sink1->Next()) r1.AppendPage(*page);
  c2.join();
  w1.join();
  w2.join();

  ExpectResultsEquivalent(Reference(plan1), r1, "subset-dim query");
  ExpectResultsEquivalent(Reference(plan2), r2, "two-dim query");
}

TEST_F(CJoinTest, ManyConcurrentQueriesAllCorrect) {
  CJoinOptions options;
  options.max_queries = 16;
  options.workers = 2;
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), options,
                         db_->metrics());

  constexpr int kQueries = 12;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back([&, q] {
      auto plan = TwoDimPlan(1000 + 200 * q);
      auto want = Reference(plan);
      auto got = RunThroughCJoin(&pipeline, plan);
      if (got.ok() && got.value().CanonicalRows() == want.CanonicalRows()) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kQueries);
}

TEST_F(CJoinTest, PipelineRunsOnlyItsWorkers) {
  CJoinOptions options;
  options.workers = 2;
  // A sanitizer runtime may start a thread of its own along with the
  // process's first thread: create one, and keep it alive, before
  // counting.
  std::promise<void> release;
  std::thread idle([done = release.get_future()] { done.wait(); });
  const int threads_before = testing::ProcessThreads();
  ASSERT_GT(threads_before, 0);
  {
    CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), options,
                           db_->metrics());
    EXPECT_EQ(testing::ProcessThreads(), threads_before + 2);
    // The workers alone run the cycle: a query still completes.
    auto plan = OneDimPlan();
    auto got = RunThroughCJoin(&pipeline, plan);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (got.ok()) ExpectResultsEquivalent(Reference(plan), got.value());
  }
  release.set_value();
  idle.join();
}

TEST_F(CJoinTest, AdmissionBeyondCapacityWaits) {
  CJoinOptions options;
  options.max_queries = 2;  // force waiting
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), options,
                         db_->metrics());
  constexpr int kQueries = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back([&] {
      auto plan = OneDimPlan();
      auto got = RunThroughCJoin(&pipeline, plan);
      if (got.ok()) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kQueries);
  EXPECT_EQ(
      db_->metrics()->GetCounter(metrics::kCjoinQueriesCompleted)->Get(),
      kQueries);
}

TEST_F(CJoinTest, RecycledBitsNeverLeakIntoAnotherQuery) {
  // Dozens of short distinct stars over 2-4 bits: every bit is re-granted
  // while its previous owner's last pages may still be in flight. The
  // stars mix levels (dim1 only, dim2 only, both) and trivial and
  // selective fact predicates, so a leaked bit would change some result.
  std::vector<PlanNodeRef> plans;
  for (int i = 0; i < 12; ++i) {
    switch (i % 3) {
      case 0:
        plans.push_back(OneDimPlan(i % 4));
        break;
      case 1:
        plans.push_back(TwoDimPlan(400 + 300 * i));
        break;
      default:
        plans.push_back(Dim2Plan(1.5 * i, 15.0 + 7 * i));
        break;
    }
  }
  std::vector<std::vector<std::string>> wants;
  for (const auto& plan : plans) wants.push_back(Reference(plan).CanonicalRows());

  for (std::size_t bits : {2, 3, 4}) {
    CJoinOptions options;
    options.max_queries = bits;
    CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), options,
                           db_->metrics());
    constexpr int kClients = 6;
    constexpr int kPerClient = 6;
    std::atomic<int> wrong{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int k = 0; k < kPerClient; ++k) {
          const std::size_t i = (c * kPerClient + k * 5) % plans.size();
          auto got = RunThroughCJoin(&pipeline, plans[i]);
          if (!got.ok() || got.value().CanonicalRows() != wants[i]) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(wrong.load(), 0) << "max_queries=" << bits;
  }
}

TEST_F(CJoinTest, DeadlineEndsAQueryWithinItsCycle) {
  // No fact row passes this star's fact predicate, so nothing is ever
  // routed to it: only a worker's claim can notice the deadline.
  auto silent = TwoDimPlan(/*fact_lt=*/0);
  auto plan = TwoDimPlan();
  const ResultSet want = Reference(plan);
  // 2 ms per fact page: one cycle of 16 pages on 2 workers takes >= 16 ms.
  db_->SetDiskResident(/*read_latency_micros=*/2000, /*bandwidth_mib=*/1500);
  ColdFactWarmDimensions();
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), CJoinOptions{},
                         db_->metrics());
  const int64_t tuples_before = Counted(metrics::kCjoinFactTuplesIn);

  auto ctx = std::make_shared<ExecContext>(1, db_->metrics());
  ctx->ArmDeadline(Trace::NowMicros() + 1000, /*timeout_ms=*/1);
  auto got = RunThroughCJoin(&pipeline, silent, ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status().ToString();
  EXPECT_LT(Counted(metrics::kCjoinFactTuplesIn) - tuples_before,
            static_cast<int64_t>(FactTable()->num_rows()))
      << "the query must stop before its cycle ends";

  // Its bit came back clean: the next query is exact.
  db_->SetDiskResident(/*read_latency_micros=*/0, /*bandwidth_mib=*/0);
  auto again = RunThroughCJoin(&pipeline, plan);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectResultsEquivalent(want, again.value());
}

TEST_F(CJoinTest, CancelledQueryLeavesItsCycleWithoutOutput) {
  // Nothing is routed to this star, so the distributor never sees it:
  // a worker's claim must notice the cancellation between pages.
  auto silent = TwoDimPlan(/*fact_lt=*/0);
  db_->SetDiskResident(/*read_latency_micros=*/2000, /*bandwidth_mib=*/1500);
  ColdFactWarmDimensions();
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), CJoinOptions{},
                         db_->metrics());
  const int64_t admitted_before = Counted(metrics::kCjoinQueriesAdmitted);
  const int64_t tuples_before = Counted(metrics::kCjoinFactTuplesIn);

  auto ctx = std::make_shared<ExecContext>(1, db_->metrics());
  StatusOr<ResultSet> got = Status::Internal("not run");
  std::thread query([&] { got = RunThroughCJoin(&pipeline, silent, ctx); });
  while (Counted(metrics::kCjoinQueriesAdmitted) == admitted_before) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ctx->Cancel();
  query.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kAborted);
  EXPECT_LT(Counted(metrics::kCjoinFactTuplesIn) - tuples_before,
            static_cast<int64_t>(FactTable()->num_rows()))
      << "the query must stop before its cycle ends";
}

TEST_F(CJoinTest, QueryCancelledWhilePendingIsNeverAdmitted) {
  auto plan = OneDimPlan();
  const ResultSet want = Reference(plan);
  // The only bit stays taken for a slow cycle (>= 40 ms).
  db_->SetDiskResident(/*read_latency_micros=*/5000, /*bandwidth_mib=*/1500);
  ColdFactWarmDimensions();
  CJoinOptions options;
  options.max_queries = 1;
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), options,
                         db_->metrics());
  const int64_t admitted_before = Counted(metrics::kCjoinQueriesAdmitted);

  StatusOr<ResultSet> first = Status::Aborted("not run");
  std::thread holder([&] { first = RunThroughCJoin(&pipeline, plan); });
  while (Counted(metrics::kCjoinQueriesAdmitted) == admitted_before) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  auto ctx = std::make_shared<ExecContext>(2, db_->metrics());
  StatusOr<ResultSet> waiting = Status::Internal("not run");
  std::thread waiter(
      [&] { waiting = RunThroughCJoin(&pipeline, plan, ctx); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ctx->Cancel();
  waiter.join();
  ASSERT_FALSE(waiting.ok());
  EXPECT_EQ(waiting.status().code(), StatusCode::kAborted);

  holder.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectResultsEquivalent(want, first.value());
  EXPECT_EQ(Counted(metrics::kCjoinQueriesAdmitted) - admitted_before, 1);
}

TEST_F(CJoinTest, FactPageReadFaultFailsOnlyTheQueriesOwedThatPage) {
  const std::vector<PlanNodeRef> plans = {TwoDimPlan(), OneDimPlan(1),
                                          Dim2Plan(6.0, 50.0)};
  std::vector<ResultSet> wants;
  for (const auto& plan : plans) wants.push_back(Reference(plan));
  // Only fact page 0 is cold, so the one injected read fault lands on the
  // first page the cycle dispatches.
  ColdFactWarmDimensions([](std::size_t p) { return p != 0; });
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("disk.read=once"));
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), CJoinOptions{},
                         db_->metrics());
  const int64_t admitted_before = Counted(metrics::kCjoinQueriesAdmitted);

  // The first query is admitted alone, so only it is owed that read; the
  // others join later and meet page 0 again at the end of their cycle.
  std::vector<StatusOr<ResultSet>> gots(plans.size(),
                                        Status::Aborted("not run"));
  std::vector<std::thread> threads;
  threads.emplace_back([&] { gots[0] = RunThroughCJoin(&pipeline, plans[0]); });
  while (Counted(metrics::kCjoinQueriesAdmitted) == admitted_before) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (std::size_t q = 1; q < plans.size(); ++q) {
    threads.emplace_back(
        [&, q] { gots[q] = RunThroughCJoin(&pipeline, plans[q]); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(FaultRegistry::Global().Fires(fault_points::kDiskRead), 1u);
  ASSERT_FALSE(gots[0].ok());
  EXPECT_EQ(gots[0].status().code(), StatusCode::kIoError);
  EXPECT_NE(gots[0].status().ToString().find(
                "injected read fault for page " +
                std::to_string(FactTable()->page_id(0))),
            std::string::npos)
      << gots[0].status().ToString();
  for (std::size_t q = 1; q < plans.size(); ++q) {
    ASSERT_TRUE(gots[q].ok()) << q << ": " << gots[q].status().ToString();
    ExpectResultsEquivalent(wants[q], gots[q].value(),
                            "query " + std::to_string(q));
  }
}

TEST_F(CJoinTest, UnknownDimensionRejected) {
  CJoinPipeline pipeline(db_->catalog(), "fact",
                         {{"dim1", 1, 0}},  // no dim2 level
                         CJoinOptions{}, db_->metrics());
  auto plan = TwoDimPlan();
  auto got = RunThroughCJoin(&pipeline, plan);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CJoinTest, MetricsAccountForDroppedTuples) {
  auto before = db_->metrics()->Snapshot();
  {
    CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), CJoinOptions{},
                           db_->metrics());
    auto plan = TwoDimPlan();
    ASSERT_TRUE(RunThroughCJoin(&pipeline, plan).ok());
  }
  auto delta = MetricsRegistry::Delta(before, db_->metrics()->Snapshot());
  EXPECT_GT(delta[metrics::kCjoinFactTuplesIn], 0);
  EXPECT_GT(delta[metrics::kCjoinTuplesDropped], 0);
  EXPECT_GT(delta[metrics::kCjoinBitmapAndOps], 0);
  EXPECT_EQ(delta[metrics::kCjoinQueriesAdmitted], 1);
  EXPECT_EQ(delta[metrics::kCjoinQueriesCompleted], 1);
}

// ---------------------------------------------------------------------------
// Fact-scan readahead through the I/O scheduler
// ---------------------------------------------------------------------------

/// The star schema on a disk-resident database: every buffer-pool miss
/// pays the read-latency model, and each test starts from a cold cache.
class CJoinPrefetchTest : public CJoinTest {
 protected:
  void SetUp() override {
    CJoinTest::SetUp();
    db_->SetDiskResident(/*read_latency_micros=*/50, /*bandwidth_mib=*/1500);
  }

  std::shared_ptr<IoScheduler> MakeScheduler() {
    IoScheduler::Options options;
    options.threads = 2;
    options.metrics = db_->metrics();
    return std::make_shared<IoScheduler>(options);
  }
};

TEST_F(CJoinPrefetchTest, ConcurrentStarsFromColdCacheMatchReference) {
  constexpr int kQueries = 10;
  std::vector<PlanNodeRef> plans;
  std::vector<ResultSet> wants;
  for (int q = 0; q < kQueries; ++q) {
    plans.push_back(q % 3 == 0 ? OneDimPlan(q % 4) : TwoDimPlan(500 + 350 * q));
    wants.push_back(Reference(plans.back()));
  }
  // The reference runs warmed the pool; readahead skips resident pages.
  ASSERT_TRUE(db_->buffer_pool()->EvictAll().ok());

  auto scheduler = MakeScheduler();
  CJoinOptions options;
  options.max_queries = 16;
  CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), options,
                         db_->metrics(), scheduler, /*prefetch_depth=*/4);

  std::vector<StatusOr<ResultSet>> gots(kQueries, Status::Aborted("not run"));
  std::vector<std::thread> threads;
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back(
        [&, q] { gots[q] = RunThroughCJoin(&pipeline, plans[q]); });
  }
  for (auto& t : threads) t.join();
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(gots[q].ok()) << gots[q].status().ToString();
    ExpectResultsEquivalent(wants[q], gots[q].value(),
                            "query " + std::to_string(q));
  }
  EXPECT_GT(db_->metrics()->GetCounter(metrics::kIoReadsIssued)->Get(), 0)
      << "the fact driver must issue scheduler readahead";
}

TEST_F(CJoinPrefetchTest, FactTableLargerThanPoolLeavesDimensionsResident) {
  constexpr int64_t kFactRows = 8000;
  BuildStar(/*frames=*/24, kFactRows);
  db_->SetDiskResident(/*read_latency_micros=*/50, /*bandwidth_mib=*/1500);
  BufferPool* pool = db_->buffer_pool();
  const Table* fact = db_->catalog()->GetTable("fact").value();
  ASSERT_GT(fact->num_pages(), pool->num_frames());

  constexpr int kQueries = 9;
  std::vector<PlanNodeRef> plans;
  std::vector<ResultSet> wants;
  for (int q = 0; q < kQueries; ++q) {
    plans.push_back(q % 3 == 0 ? OneDimPlan(q % 4)
                               : TwoDimPlan(1000 + 800 * q));
    wants.push_back(Reference(plans.back()));
  }
  ASSERT_TRUE(pool->EvictAll().ok());

  auto scheduler = MakeScheduler();
  CJoinOptions options;
  options.max_queries = 3;  // 9 queries, 3 at a time: >= 3 fact cycles
  auto pipeline = std::make_unique<CJoinPipeline>(
      db_->catalog(), "fact", Levels(), options, db_->metrics(), scheduler,
      /*prefetch_depth=*/4);
  Counter* fact_tuples =
      db_->metrics()->GetCounter(metrics::kCjoinFactTuplesIn);
  const int64_t tuples_before = fact_tuples->Get();

  std::vector<StatusOr<ResultSet>> gots(kQueries, Status::Aborted("not run"));
  std::vector<std::thread> threads;
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back(
        [&, q] { gots[q] = RunThroughCJoin(pipeline.get(), plans[q]); });
  }
  for (auto& t : threads) t.join();
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(gots[q].ok()) << gots[q].status().ToString();
    ExpectResultsEquivalent(wants[q], gots[q].value(),
                            "query " + std::to_string(q));
  }
  EXPECT_GE(fact_tuples->Get() - tuples_before, 3 * kFactRows);

  // Quiesce: no readahead may still be touching the pool.
  pipeline.reset();
  scheduler->Shutdown();

  // A second admission wave loads each dimension into a fresh flat table
  // (DimensionHashTable::Select). The fact cycles recycled their own
  // frames, so those loads must not miss once.
  const int64_t misses_before = pool->GetStats().misses;
  for (const CJoinLevelSpec& level : Levels()) {
    const Table* dim = db_->catalog()->GetTable(level.dim_table).value();
    DimensionHashTable ht(dim, level.pk_col_in_dim, options.max_queries);
    auto sel = ht.Select(*TruePredicate());
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    EXPECT_TRUE(sel.value().all);
    EXPECT_GT(ht.NumRows(), 0u);
  }
  EXPECT_EQ(pool->GetStats().misses, misses_before)
      << "dimension pages were evicted by the fact cycle";
}

TEST_F(CJoinPrefetchTest, TeardownCancelsQueuedReadahead) {
  auto plan = TwoDimPlan();
  const ResultSet want = Reference(plan);
  ASSERT_TRUE(db_->buffer_pool()->EvictAll().ok());

  // Park both I/O workers so every readahead the claims issue stays
  // queued: the query then pays each miss inline and must still finish.
  auto scheduler = MakeScheduler();
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::latch parked(2);
  std::vector<IoTicketRef> blockers;
  for (int i = 0; i < 2; ++i) {
    blockers.push_back(
        scheduler->Submit(IoPriority::kSpillWrite, 0, [gate, &parked] {
          parked.count_down();
          gate.wait();
          return Status::OK();
        }));
  }
  parked.wait();

  {
    CJoinPipeline pipeline(db_->catalog(), "fact", Levels(), CJoinOptions{},
                           db_->metrics(), scheduler, /*prefetch_depth=*/4);
    auto got = RunThroughCJoin(&pipeline, plan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectResultsEquivalent(want, got.value());
    EXPECT_EQ(scheduler->QueueDepth(IoPriority::kScanPrefetch), 4u)
        << "readahead is bounded by the depth while nothing completes";
  }  // destroyed with its readahead still queued
  const BufferPoolStats before_release = db_->buffer_pool()->GetStats();

  release.set_value();
  for (auto& blocker : blockers) ASSERT_TRUE(blocker->Wait().ok());
  for (int spin = 0;
       spin < 2000 && scheduler->QueueDepth(IoPriority::kScanPrefetch) > 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(scheduler->QueueDepth(IoPriority::kScanPrefetch), 0u);
  const BufferPoolStats after = db_->buffer_pool()->GetStats();
  EXPECT_EQ(after.hits + after.misses,
            before_release.hits + before_release.misses)
      << "cancelled readahead must never run";
}

}  // namespace
}  // namespace sharing
