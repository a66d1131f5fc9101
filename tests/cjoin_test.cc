// Tests for the CJOIN module: star-plan recognition, the shared dimension
// hash tables, pipeline correctness against the reference executor,
// admission/departure bookkeeping, fact-scan readahead, and GQP+SP
// integration.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <thread>

#include "cjoin/cjoin_stage.h"
#include "cjoin/pipeline.h"
#include "cjoin/star_query.h"
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

  /// Runs a star plan through a fresh CJOIN pipeline and materializes.
  StatusOr<ResultSet> RunThroughCJoin(CJoinPipeline* pipeline,
                                      const PlanNodeRef& plan) {
    auto spec_or = StarQueryFromPlan(*plan, "fact");
    SHARING_RETURN_NOT_OK(spec_or.status());
    auto sink = std::make_shared<FifoBuffer>(64);
    auto ctx = std::make_shared<ExecContext>(1, db_->metrics());
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
  ASSERT_TRUE(ht.AdmitQuery(2, *pred).ok());
  EXPECT_EQ(ht.NumEntries(), 10u);

  const auto* hit = ht.Probe(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->bits.Test(2));
  EXPECT_EQ(ht.Probe(15), nullptr);

  // Second query with an overlapping predicate shares entries.
  auto pred2 = Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{20}));
  ASSERT_TRUE(ht.AdmitQuery(5, *pred2).ok());
  EXPECT_EQ(ht.NumEntries(), 20u);
  EXPECT_TRUE(ht.Probe(5)->bits.Test(2));
  EXPECT_TRUE(ht.Probe(5)->bits.Test(5));
  EXPECT_FALSE(ht.Probe(15)->bits.Test(2));

  // Departure of query 2 clears its bits; entries only it used vanish.
  ht.RemoveQuery(2);
  ASSERT_NE(ht.Probe(5), nullptr);
  EXPECT_FALSE(ht.Probe(5)->bits.Test(2));
  ht.RemoveQuery(5);
  EXPECT_EQ(ht.NumEntries(), 0u);
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

  // A second admission wave scans each dimension under the epoch lock
  // (DimensionHashTable::AdmitQuery). The fact cycles recycled their own
  // frames, so those scans must not miss once.
  const int64_t misses_before = pool->GetStats().misses;
  for (const CJoinLevelSpec& level : Levels()) {
    const Table* dim = db_->catalog()->GetTable(level.dim_table).value();
    DimensionHashTable ht(dim, level.pk_col_in_dim, options.max_queries);
    ASSERT_TRUE(ht.AdmitQuery(0, *TruePredicate()).ok());
    EXPECT_GT(ht.NumEntries(), 0u);
  }
  EXPECT_EQ(pool->GetStats().misses, misses_before)
      << "dimension pages were evicted by the fact cycle";
}

TEST_F(CJoinPrefetchTest, TeardownCancelsQueuedReadahead) {
  auto plan = TwoDimPlan();
  const ResultSet want = Reference(plan);
  ASSERT_TRUE(db_->buffer_pool()->EvictAll().ok());

  // Park both I/O workers so every readahead the driver issues stays
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
