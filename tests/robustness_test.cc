// Robustness & utility coverage: histogram metrics, I/O fault injection
// (plain scans, shared circular scans, the CJOIN pipeline, whole-engine
// queries), and buffer-pool exhaustion. The common thread: failures must
// surface as Status, never as hangs, crashes, or silently short results.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/fault.h"
#include "core/sharing_engine.h"
#include "storage/circular_scan.h"
#include "test_util.h"
#include "workload/ssb.h"

namespace sharing {
namespace {

using testing::MakeSimpleTable;
using testing::MakeTestDatabase;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.TotalCount(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.TotalCount(), 3);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

TEST(HistogramTest, QuantilesWithinBucketResolution) {
  Histogram h;
  for (int i = 0; i < 95; ++i) h.Record(100);    // bucket [64,128)
  for (int i = 0; i < 5; ++i) h.Record(10000);   // bucket [8192,16384)
  // p50 must land in the low bucket, p99 in the high one; log buckets are
  // accurate to within 2x.
  EXPECT_GE(h.ValueAtQuantile(0.5), 64);
  EXPECT_LT(h.ValueAtQuantile(0.5), 128);
  EXPECT_GE(h.ValueAtQuantile(0.99), 8192);
  EXPECT_LT(h.ValueAtQuantile(0.99), 16384);
}

TEST(HistogramTest, QuantileEdgesClamp) {
  Histogram h;
  h.Record(7);
  EXPECT_EQ(h.ValueAtQuantile(-1.0), h.ValueAtQuantile(0.0));
  EXPECT_EQ(h.ValueAtQuantile(2.0), h.ValueAtQuantile(1.0));
}

TEST(HistogramTest, NonPositiveValuesLandInFirstBucket) {
  Histogram h;
  h.Record(0);
  h.Record(-5);
  EXPECT_EQ(h.TotalCount(), 2);
  EXPECT_LE(h.ValueAtQuantile(1.0), 2);
}

TEST(HistogramTest, ConcurrentRecordsAllCounted) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(i + 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.TotalCount(), kThreads * kPerThread);
}

TEST(HistogramTest, RegistryPointerStable) {
  MetricsRegistry registry;
  Histogram* a = registry.GetHistogram("latency");
  a->Record(5);
  Histogram* b = registry.GetHistogram("latency");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->TotalCount(), 1);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A pool far smaller than the table, so reads actually hit the disk
    // layer where faults are injected.
    db_ = MakeTestDatabase(/*frames=*/8);
    table_ = MakeSimpleTable(db_.get(), "t", 20000);
    ASSERT_GT(table_->num_pages(), 16u);
  }

  // The registry is process-global; never leak a schedule into the next
  // test.
  void TearDown() override { FaultRegistry::Global().Disarm(); }

  PlanNodeRef ScanAll() {
    return std::make_shared<ScanNode>("t", table_->schema(), TruePredicate(),
                                      std::vector<std::size_t>{0, 1});
  }

  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(FaultTest, PlainScanSurfacesIoError) {
  QPipeOptions options;
  options.io_threads = 0;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("disk.read=once"));
  auto result = engine.Execute(ScanAll());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  // The engine recovers once the fault clears.
  FaultRegistry::Global().Disarm();
  auto retry = engine.Execute(ScanAll());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.value().num_rows(), 20000u);
}

TEST_F(FaultTest, SharedCircularScanSurfacesIoErrorNotShortResult) {
  QPipeOptions options;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());
  // Warm path works.
  ASSERT_TRUE(engine.Execute(ScanAll()).ok());
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("disk.read=once"));
  auto result = engine.Execute(ScanAll());
  // Either the fault hit this query's cycle (must be IoError, never a
  // short row count) or another reader absorbed it.
  if (result.ok()) {
    EXPECT_EQ(result.value().num_rows(), 20000u);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
}

TEST_F(FaultTest, CircularScanTicketReportsError) {
  CircularScanGroup group(table_, /*queue_depth=*/2, db_->metrics());
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("disk.read=once"));
  auto ticket = group.Attach();
  std::size_t pages_seen = 0;
  while (auto page = ticket->Next()) ++pages_seen;
  EXPECT_FALSE(ticket->FinalStatus().ok());
  EXPECT_LT(pages_seen, table_->num_pages());
}

TEST_F(FaultTest, DestroyedEngineReleasesTheFaultCounter) {
  // An engine binds the fault counter to its own registry; once both are
  // gone, a fire must count into the global registry, not freed memory.
  Counter* global =
      MetricsRegistry::Global().GetCounter(metrics::kFaultInjected);
  {
    MetricsRegistry local;
    QPipeEngine engine(db_->catalog(), QPipeOptions{}, &local);
  }
  const int64_t before = global->Get();
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("disk.read=once"));
  EXPECT_TRUE(SHARING_FAULT_POINT(fault_points::kDiskRead));
  EXPECT_EQ(global->Get(), before + 1);
}

TEST_F(FaultTest, CjoinPipelineFailsQueriesOnFactScanError) {
  auto db = MakeTestDatabase(/*frames=*/64);
  SHARING_CHECK_OK(ssb::GenerateAll(db->catalog(), db->buffer_pool(), 0.005));
  EngineConfig config;
  config.mode = EngineMode::kGqp;
  config.fact_table = "lineorder";
  config.cjoin_levels = ssb::PipelineLevels();
  SharingEngine engine(db.get(), config);
  auto plan = ssb::ParameterizedStarPlan(
      {.selectivity = 0.05, .num_variants = 1, .variant = 0});

  // Warm run succeeds.
  auto warm = engine.Execute(plan);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // p1 = every disk read fails until disarmed.
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("disk.read=p1"));
  ASSERT_TRUE(db->buffer_pool()->EvictAll().ok());  // force disk reads
  auto result = engine.Execute(plan);
  ASSERT_FALSE(result.ok());

  FaultRegistry::Global().Disarm();
  auto recovered = engine.Execute(plan);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().CanonicalRows(), warm.value().CanonicalRows());
}

TEST_F(FaultTest, AllEngineModesSurfacePersistentIoError) {
  auto db = MakeTestDatabase(/*frames=*/64);
  SHARING_CHECK_OK(ssb::GenerateAll(db->catalog(), db->buffer_pool(), 0.005));
  EngineConfig config;
  config.fact_table = "lineorder";
  config.cjoin_levels = ssb::PipelineLevels();
  SharingEngine engine(db.get(), config);
  auto plan = ssb::ParameterizedStarPlan(
      {.selectivity = 0.05, .num_variants = 1, .variant = 0});
  for (EngineMode mode :
       {EngineMode::kQueryCentric, EngineMode::kSpPush, EngineMode::kSpPull,
        EngineMode::kSpAdaptive, EngineMode::kGqp, EngineMode::kGqpSp}) {
    engine.SetMode(mode);
    // Inject the fault *before* dropping the cache: the CJOIN pipeline
    // scans continuously, and evicting first would let it re-warm the
    // pool from the healthy disk before the fault lands. With the fault
    // already armed, the cold cache forces every path to observe it.
    SHARING_CHECK_OK(FaultRegistry::Global().Arm("disk.read=p1"));
    ASSERT_TRUE(db->buffer_pool()->EvictAll().ok());
    auto result = engine.Execute(plan);
    EXPECT_FALSE(result.ok()) << EngineModeToString(mode);
    FaultRegistry::Global().Disarm();
    // Recovery may take a retry: in SP modes a new query can legitimately
    // attach to a failing host that is still draining, inheriting its
    // error once. It must succeed shortly after the fault clears.
    Status last = Status::OK();
    bool recovered = false;
    for (int attempt = 0; attempt < 5 && !recovered; ++attempt) {
      auto r = engine.Execute(plan);
      recovered = r.ok();
      if (!recovered) {
        last = r.status();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    EXPECT_TRUE(recovered) << EngineModeToString(mode) << ": "
                           << last.ToString();
  }
}

TEST_F(FaultTest, BufferPoolExhaustionIsAnErrorNotACrash) {
  auto db = MakeTestDatabase(/*frames=*/4);
  auto* table = MakeSimpleTable(db.get(), "small", 5000);
  ASSERT_GT(table->num_pages(), 4u);
  // Pin every frame.
  std::vector<PageGuard> pinned;
  for (std::size_t p = 0; p < 4; ++p) {
    auto guard = db->buffer_pool()->FetchPage(table->page_id(p));
    ASSERT_TRUE(guard.ok());
    pinned.push_back(std::move(guard).value());
  }
  auto overflow = db->buffer_pool()->FetchPage(table->page_id(4));
  ASSERT_FALSE(overflow.ok());
  // Releasing a pin restores service.
  pinned.pop_back();
  auto retry = db->buffer_pool()->FetchPage(table->page_id(4));
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

}  // namespace
}  // namespace sharing
