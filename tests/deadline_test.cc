// Per-query deadline semantics and host-failure containment.
//
// Deadlines: an expired query must stop at the next page boundary —
// operator polls, the collector loop, parked SPL readers, blocked FIFO
// consumers — and surface kDeadlineExceeded, never hang and never return
// a partial result as if complete.
//
// Containment: when a sharing host dies before publishing a single page,
// an attached satellite re-runs its packet unshared (exactly once) and
// still produces the full, correct result.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/fault.h"
#include "common/trace.h"
#include "exec/exec_context.h"
#include "exec/reference_executor.h"
#include "qpipe/engine.h"
#include "qpipe/fifo_buffer.h"
#include "qpipe/shared_pages_list.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::ExpectResultsEquivalent;
using testing::MakeSimpleTable;
using testing::MakeTestDatabase;

class DeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase();
    table_ = MakeSimpleTable(db_.get(), "t", 20000);
  }

  void TearDown() override { FaultRegistry::Global().Disarm(); }

  PlanNodeRef ScanPlan() {
    return std::make_shared<ScanNode>("t", table_->schema(), TruePredicate(),
                                      std::vector<std::size_t>{0, 1});
  }

  /// scan -> agg: a pipeline-breaking plan whose single output page is
  /// published only after the whole input is consumed.
  PlanNodeRef AggPlan() {
    return std::make_shared<AggregateNode>(
        ScanPlan(), std::vector<std::size_t>{0},
        std::vector<AggSpec>{AggSpec::Count("n")});
  }

  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(DeadlineTest, ExpiredDeadlineSurfacesThroughCollect) {
  QPipeOptions options;
  options.query_timeout_ms = 30;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());
  QueryHandle handle = engine.Submit(ScanPlan());
  // Outlive the budget before collecting: the partial result must be
  // discarded, not returned as if complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto result = handle.Collect();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

TEST_F(DeadlineTest, GenerousDeadlineDoesNotTrip) {
  QPipeOptions options;
  options.query_timeout_ms = 60000;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());
  auto result = engine.Execute(ScanPlan());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows(), 20000u);
}

TEST_F(DeadlineTest, ParkedSplReaderUnparksOnDeadline) {
  MetricsRegistry metrics;
  auto list = SharedPagesList::Create(&metrics);
  auto ctx = std::make_shared<ExecContext>(1, &metrics);
  ctx->ArmDeadline(Trace::NowMicros() + 60 * 1000, 60);
  auto reader = list->AttachReader(ctx);
  ASSERT_NE(reader, nullptr);

  // The list is open and empty: without a deadline this Next would park
  // forever. The bounded wait slices must notice the expiry and fail
  // the reader with the query's status.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(reader->Next(), nullptr);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 50);
  EXPECT_LT(elapsed.count(), 5000) << "unpark must be prompt, not a hang";
  EXPECT_EQ(reader->FinalStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(DeadlineTest, BlockedFifoConsumerUnblocksOnDeadline) {
  MetricsRegistry metrics;
  auto ctx = std::make_shared<ExecContext>(1, &metrics);
  ctx->ArmDeadline(Trace::NowMicros() + 60 * 1000, 60);
  FifoBuffer fifo(2, ctx);

  EXPECT_EQ(fifo.Next(), nullptr);
  EXPECT_EQ(fifo.FinalStatus().code(), StatusCode::kDeadlineExceeded)
      << "a stop-induced nullptr must not read as clean end-of-stream";
}

// ---------------------------------------------------------------------------
// Host-failure containment: the satellite re-run path
// ---------------------------------------------------------------------------

TEST_F(DeadlineTest, HostFailureBeforeFirstPageRerunsSatelliteUnshared) {
  // Single-worker stages and a tiny FIFO give deterministic ordering:
  // the blocker scan saturates its 2-page FIFO and wedges the only
  // TSCAN worker, so the host aggregate (whose scan input is queued
  // behind it) cannot publish anything until the blocker is collected —
  // which leaves a wide-open window to attach the satellite and arm the
  // append fault.
  QPipeOptions options;
  options.stage_workers = 1;
  options.stage_max_workers = 1;
  options.fifo_capacity = 2;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());
  // Scans move through plain FIFOs; only the aggregate shares.
  engine.agg_stage()->SetSpMode(SpMode::kPull);

  QueryHandle blocker = engine.Submit(ScanPlan());
  QueryHandle host = engine.Submit(AggPlan());
  QueryHandle satellite = engine.Submit(AggPlan());

  // The host's first (and only) channel append fails: the channel is
  // poisoned with zero pages published.
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("sharing.append=once"));

  ASSERT_TRUE(blocker.Collect().ok());

  auto host_result = host.Collect();
  ASSERT_FALSE(host_result.ok());
  EXPECT_NE(host_result.status().ToString().find("injected"),
            std::string::npos)
      << host_result.status().ToString();

  // The satellite consumed nothing from the dead host, so the stage
  // re-runs its packet unshared — full result, bit-for-bit.
  auto sat_result = satellite.Collect();
  ASSERT_TRUE(sat_result.ok()) << sat_result.status().ToString();
  ReferenceExecutor ref(db_->catalog());
  auto want = ref.Execute(*AggPlan());
  ASSERT_TRUE(want.ok());
  ExpectResultsEquivalent(want.value(), sat_result.value(), "rerun");
  EXPECT_EQ(
      db_->metrics()->GetCounter(metrics::kSharingSatelliteRerun)->Get(), 1);
}

TEST_F(DeadlineTest, SatelliteRerunHappensAtMostOnce) {
  // Same wedge as above, but against a pool far smaller than the table
  // (every scan hits the disk layer) with a persistent read fault: the
  // host dies before publishing, the satellite's single re-run fails
  // too, and the satellite must surface that error instead of retrying
  // forever.
  auto db = MakeTestDatabase(/*frames=*/8);
  Table* table = MakeSimpleTable(db.get(), "small", 20000);
  ASSERT_GT(table->num_pages(), 16u);
  auto scan = [&] {
    return std::make_shared<ScanNode>("small", table->schema(),
                                      TruePredicate(),
                                      std::vector<std::size_t>{0, 1});
  };
  auto agg = [&]() -> PlanNodeRef {
    return std::make_shared<AggregateNode>(
        scan(), std::vector<std::size_t>{0},
        std::vector<AggSpec>{AggSpec::Count("n")});
  };
  QPipeOptions options;
  options.stage_workers = 1;
  options.stage_max_workers = 1;
  options.fifo_capacity = 2;
  QPipeEngine engine(db->catalog(), options, db->metrics());
  engine.agg_stage()->SetSpMode(SpMode::kPull);

  QueryHandle blocker = engine.Submit(PlanNodeRef(scan()));
  QueryHandle host = engine.Submit(agg());
  QueryHandle satellite = engine.Submit(agg());
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("disk.read=p1"));

  EXPECT_FALSE(blocker.Collect().ok());
  EXPECT_FALSE(host.Collect().ok());
  auto sat_result = satellite.Collect();
  FaultRegistry::Global().Disarm();
  ASSERT_FALSE(sat_result.ok());
  EXPECT_EQ(sat_result.status().code(), StatusCode::kIoError)
      << sat_result.status().ToString();
  // Exactly one re-run attempt, then the error surfaced.
  EXPECT_EQ(
      db->metrics()->GetCounter(metrics::kSharingSatelliteRerun)->Get(), 1);
}

}  // namespace
}  // namespace sharing
