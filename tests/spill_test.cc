// Tests for the SP spill subsystem: DiskManager temp-page recycling, the
// SpBudgetGovernor's spill/unspill round trip, graceful degradation on an
// unusable spill store, the engine-level budget acceptance criterion
// (stalled reader: in-memory retention <= budget, bit-exact fault-back,
// all spill bytes freed after drain), and the adaptive cost model's
// pull+spill preference.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "qpipe/engine.h"
#include "qpipe/sharing_channel.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::ExpectResultsEquivalent;
using testing::MakeTestDatabase;

// ---------------------------------------------------------------------------
// DiskManager: temp-file allocation/free
// ---------------------------------------------------------------------------

TEST(DiskManagerFreeListTest, FreedPagesAreRecycledBeforeGrowth) {
  DiskManager disk(DiskOptions{}, &MetricsRegistry::Global());
  PageId a = disk.AllocatePage();
  PageId b = disk.AllocatePage();
  PageId c = disk.AllocatePage();
  EXPECT_EQ(disk.num_pages(), 3u);

  disk.FreePage(b);
  disk.FreePage(a);
  EXPECT_EQ(disk.NumFreePages(), 2u);

  // Recycled ids come back before the store grows.
  PageId d = disk.AllocatePage();
  PageId e = disk.AllocatePage();
  EXPECT_EQ(disk.NumFreePages(), 0u);
  EXPECT_EQ(disk.num_pages(), 3u) << "no growth while the free list serves";
  EXPECT_TRUE((d == a && e == b) || (d == b && e == a));
  (void)c;

  // A recycled page is zeroed, not a stale view of its previous tenant.
  uint8_t frame[kPageBytes];
  ASSERT_TRUE(disk.ReadPage(d, frame).ok());
  for (std::size_t i = 0; i < kPageBytes; ++i) ASSERT_EQ(frame[i], 0);
}

TEST(DiskManagerFreeListTest, FileBackedRecycledPagesAreZeroed) {
  DiskOptions options;
  // Unique per process so concurrent runs on one host cannot truncate
  // or remove each other's backing file.
  options.path = "/tmp/sharing_disk_free_test_" +
                 std::to_string(::getpid()) + ".bin";
  DiskManager disk(options, &MetricsRegistry::Global());
  PageId id = disk.AllocatePage();
  uint8_t frame[kPageBytes];
  std::memset(frame, 0xab, kPageBytes);
  ASSERT_TRUE(disk.WritePage(id, frame).ok());
  disk.FreePage(id);
  ASSERT_EQ(disk.AllocatePage(), id);
  ASSERT_TRUE(disk.ReadPage(id, frame).ok());
  for (std::size_t i = 0; i < kPageBytes; ++i) {
    ASSERT_EQ(frame[i], 0) << "stale tenant byte at offset " << i;
  }
  // Real bytes supersede the deferred zero.
  std::memset(frame, 0x5c, kPageBytes);
  ASSERT_TRUE(disk.WritePage(id, frame).ok());
  uint8_t back[kPageBytes];
  ASSERT_TRUE(disk.ReadPage(id, back).ok());
  ASSERT_EQ(0, std::memcmp(back, frame, kPageBytes));
}

// ---------------------------------------------------------------------------
// SpBudgetGovernor: serialization round trip
// ---------------------------------------------------------------------------

std::shared_ptr<SpBudgetGovernor> MakeGovernor(MetricsRegistry* metrics,
                                               std::size_t budget,
                                               std::string path = {}) {
  SpBudgetGovernor::Options gopts;
  gopts.budget_pages = budget;
  gopts.spill_path = std::move(path);
  gopts.metrics = metrics;
  return SpBudgetGovernor::Create(std::move(gopts));
}

/// A page whose every row byte is a deterministic pattern of (seed, row).
PageRef MakePatternPage(std::size_t row_width, std::size_t rows,
                        uint8_t seed) {
  auto page = std::make_shared<RowPage>(row_width, row_width * rows);
  for (std::size_t r = 0; r < rows; ++r) {
    uint8_t* slot = page->AppendSlot();
    EXPECT_NE(slot, nullptr);
    for (std::size_t b = 0; b < row_width; ++b) {
      slot[b] = static_cast<uint8_t>(seed + 31 * r + b);
    }
  }
  return page;
}

void ExpectPagesIdentical(const RowPage& got, const RowPage& want) {
  ASSERT_EQ(got.row_width(), want.row_width());
  ASSERT_EQ(got.row_count(), want.row_count());
  EXPECT_EQ(got.capacity(), want.capacity());
  if (want.row_count() > 0) {
    EXPECT_EQ(0, std::memcmp(got.RowAt(0), want.RowAt(0), want.data_bytes()));
  }
}

TEST(SpBudgetGovernorTest, SpillUnspillRoundTripIsBitExact) {
  MetricsRegistry metrics;
  auto governor = MakeGovernor(&metrics, 1);
  // Odd row width (rows straddle the 8 KiB disk-page boundary), multi-page
  // chain (40 KiB serialized > 4 disk pages), plus a single-page payload.
  const std::pair<std::size_t, std::size_t> kCases[] = {
      {40, 1000}, {24, 10}, {8192, 4}};
  for (auto [width, rows] : kCases) {
    PageRef original = MakePatternPage(width, rows, 0x5a);
    SpilledPageRef spilled = governor->Spill(*original);
    ASSERT_NE(spilled, nullptr);
    EXPECT_EQ(spilled->bytes(),
              page_layout::kHeaderBytes + original->data_bytes());
    EXPECT_EQ(metrics.GetGauge(metrics::kSpSpillBytes)->Get(),
              static_cast<int64_t>(spilled->bytes()));
    auto back = governor->Unspill(*spilled);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectPagesIdentical(*back.value(), *original);
  }
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesSpilled)->Get(), 3);
  EXPECT_EQ(metrics.GetCounter(metrics::kSpUnspillReads)->Get(), 3);
  EXPECT_EQ(metrics.GetGauge(metrics::kSpSpillBytes)->Get(), 0)
      << "each chain was freed when its ref died";
}

TEST(SpBudgetGovernorTest, DroppingTheLastRefFreesTheChain) {
  MetricsRegistry metrics;
  Gauge* spill_bytes = metrics.GetGauge(metrics::kSpSpillBytes);
  auto governor = MakeGovernor(&metrics, 1);
  PageRef page = MakePatternPage(64, 400, 7);  // ~25 KiB, 4-page chain
  SpilledPageRef spilled = governor->Spill(*page);
  ASSERT_NE(spilled, nullptr);
  EXPECT_GT(spill_bytes->Get(), 0);
  spilled.reset();
  EXPECT_EQ(spill_bytes->Get(), 0) << "freeing must return every byte";

  // The freed chain is recycled: spilling again reuses the same disk
  // pages instead of growing the temp file.
  SpilledPageRef again = governor->Spill(*page);
  ASSERT_NE(again, nullptr);
  auto back = governor->Unspill(*again);
  ASSERT_TRUE(back.ok());
  ExpectPagesIdentical(*back.value(), *page);
}

TEST(SpBudgetGovernorTest, ExplicitSpillPathIsNeverShared) {
  MetricsRegistry metrics;
  const std::string path = "/tmp/sharing_spill_shared_path_test_" +
      std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());
  auto first = MakeGovernor(&metrics, 1, path);
  PageRef page = MakePatternPage(64, 10, 3);
  SpilledPageRef spilled = first->Spill(*page);
  ASSERT_NE(spilled, nullptr);

  // A second governor on the same path must refuse (exclusive creation)
  // instead of truncating the first governor's chains.
  auto second = MakeGovernor(&metrics, 1, path);
  EXPECT_EQ(second->Spill(*page), nullptr);

  // The first governor's store is intact.
  auto back = first->Unspill(*spilled);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectPagesIdentical(*back.value(), *page);
}

TEST(SpBudgetGovernorTest, FailedStoreLatchesUsableOff) {
  MetricsRegistry metrics;
  auto governor =
      MakeGovernor(&metrics, 2, "/nonexistent_dir_for_spill/x/store.bin");
  EXPECT_TRUE(governor->enabled());
  EXPECT_TRUE(governor->usable()) << "store not probed yet";
  PageRef page = MakePatternPage(8, 4, 1);
  EXPECT_EQ(governor->Spill(*page), nullptr);
  EXPECT_TRUE(governor->enabled());
  EXPECT_FALSE(governor->usable())
      << "a failed store must switch the adaptive spill preference off";
}

TEST(SpBudgetGovernorTest, UnusableSpillPathDegradesToNoSpill) {
  MetricsRegistry metrics;
  auto governor =
      MakeGovernor(&metrics, 2, "/nonexistent_dir_for_spill/x/store.bin");
  SharingChannelOptions options;
  options.metrics = &metrics;
  options.governor = governor;
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
  auto host = channel->AttachReader();
  auto stalled = channel->AttachReader();
  for (int i = 0; i < 16; ++i) {
    auto page = std::make_shared<RowPage>(sizeof(int64_t), 64);
    int64_t v = i;
    page->AppendRow(reinterpret_cast<const uint8_t*>(&v));
    ASSERT_TRUE(channel->Put(page));
    ASSERT_NE(host->Next(), nullptr);
  }
  channel->Close(Status::OK());
  // Over budget but unspillable: pages stay resident (losing data would
  // be worse) and the stalled reader still sees the full result.
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesSpilled)->Get(), 0);
  int count = 0;
  int64_t v;
  while (PageRef page = stalled->Next()) {
    std::memcpy(&v, page->RowAt(0), sizeof(v));
    EXPECT_EQ(v, count);
    ++count;
  }
  EXPECT_EQ(count, 16);
}

// ---------------------------------------------------------------------------
// Engine-level acceptance: budget held under a stalled reader, bit-exact
// fault-back, all spill bytes freed after drain.
// ---------------------------------------------------------------------------

class SpillEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase();
    Schema schema({Column::Int64("id"), Column::Int64("grp"),
                   Column::Double("val")});
    auto t = db_->catalog()->CreateTable("wide", schema, db_->buffer_pool());
    ASSERT_TRUE(t.ok());
    TableAppender appender(t.value());
    for (int64_t i = 0; i < 100000; ++i) {
      auto row = appender.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value().SetInt64(0, i).SetInt64(1, i % 17).SetDouble(
          2, double(i % 257));
    }
    ASSERT_TRUE(appender.Finish().ok());
  }

  PlanNodeRef ScanPlan() {
    Schema schema = db_->catalog()->GetTable("wide").value()->schema();
    return std::make_shared<ScanNode>("wide", schema, TruePredicate(),
                                      std::vector<std::size_t>{0, 1, 2});
  }

  /// Waits until the engine's producers go quiet (pages_shared stable).
  void AwaitProduction() {
    Counter* shared = db_->metrics()->GetCounter(metrics::kSpPagesShared);
    int64_t last = -1;
    for (int spin = 0; spin < 200; ++spin) {
      int64_t now = shared->Get();
      if (now == last && now > 0) return;
      last = now;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Waits until the governor's async spill writes have all landed — the
  /// budget is only guaranteed once in-flight victims (pinned until
  /// durable) have been installed.
  void AwaitSpillQuiesce(QPipeEngine& engine) {
    const auto& governor = engine.sp_governor();
    ASSERT_NE(governor, nullptr);
    for (int spin = 0; spin < 1000 && governor->SpillsInFlight() > 0;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(governor->SpillsInFlight(), 0u);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SpillEngineTest, StalledReaderHoldsBudgetAndDrainsBitExact) {
  constexpr std::size_t kBudget = 8;
  QPipeOptions options{.sp_mode = SpMode::kPull};
  options.sp_memory_budget = kBudget;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  Gauge* retained = db_->metrics()->GetGauge(metrics::kSpPagesRetained);
  Gauge* spill_bytes = db_->metrics()->GetGauge(metrics::kSpSpillBytes);

  // Host + a satellite we deliberately do not drain: the stalled reader
  // pins the scan's whole result, the regime the budget exists for.
  QueryHandle host = engine.Submit(ScanPlan());
  QueryHandle stalled = engine.Submit(ScanPlan());
  auto host_result = host.Collect();
  ASSERT_TRUE(host_result.ok());

  AwaitProduction();
  AwaitSpillQuiesce(engine);
  ASSERT_GT(db_->metrics()->GetCounter(metrics::kSpPagesShared)->Get(),
            static_cast<int64_t>(2 * kBudget))
      << "the scan must produce enough pages to exercise the budget";
  EXPECT_LE(retained->Get(), static_cast<int64_t>(kBudget))
      << "a stalled reader must not pin more than the budget in RAM";
  EXPECT_GT(db_->metrics()->GetCounter(metrics::kSpPagesSpilled)->Get(), 0);
  EXPECT_GT(spill_bytes->Get(), 0);

  // The stalled reader drains: bit-exact results via fault-back.
  auto late_result = stalled.Collect();
  ASSERT_TRUE(late_result.ok());
  ExpectResultsEquivalent(host_result.value(), late_result.value());
  EXPECT_GT(db_->metrics()->GetCounter(metrics::kSpUnspillReads)->Get(), 0);

  // All tiers empty after every reader drained.
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(spill_bytes->Get(), 0);
}

TEST_F(SpillEngineTest, CancelledStalledReaderFreesSpill) {
  QPipeOptions options{.sp_mode = SpMode::kPull};
  options.sp_memory_budget = 4;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  QueryHandle host = engine.Submit(ScanPlan());
  QueryHandle stalled = engine.Submit(ScanPlan());
  ASSERT_TRUE(host.Collect().ok());
  AwaitProduction();
  AwaitSpillQuiesce(engine);

  stalled.Cancel();
  // Cancellation releases the stalled reader's hold; spilled chains are
  // deleted unread and the memory account returns to zero.
  Gauge* retained = db_->metrics()->GetGauge(metrics::kSpPagesRetained);
  Gauge* spill_bytes = db_->metrics()->GetGauge(metrics::kSpSpillBytes);
  for (int spin = 0; spin < 100 && spill_bytes->Get() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(spill_bytes->Get(), 0);
}

// ---------------------------------------------------------------------------
// Adaptive admission: the cost model's pull+spill preference
// ---------------------------------------------------------------------------

TEST_F(SpillEngineTest, AdaptivePrefersPullSpillWhenRetentionExceedsBudget) {
  // One session of history is enough for the model to price the
  // signature. The default FIFO capacity lets the capped lag price the
  // push convoy, and a 4-page budget puts the retention forecast far
  // beyond what memory holds.
  constexpr int kSatellites = 6;
  QPipeOptions options{.sp_mode = SpMode::kAdaptive};
  options.cost_model_min_samples = 1;
  options.sp_memory_budget = 4;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  // A first sighting is cold (executed unshared); it makes the signature
  // hot for the sessions below.
  ASSERT_TRUE(engine.Execute(ScanPlan()).ok());

  // Submits a host plus kSatellites twins, then drains them in order: the
  // undrained satellites trail the producer by the whole result.
  auto run_session = [&] {
    std::vector<QueryHandle> handles;
    for (int i = 0; i <= kSatellites; ++i) {
      handles.push_back(engine.Submit(ScanPlan()));
    }
    std::vector<ResultSet> results;
    for (auto& h : handles) {
      auto r = h.Collect();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) results.push_back(std::move(r).value());
    }
    AwaitProduction();
    return results;
  };

  // Session 1: thin history, so the prior hosts pull and the closing
  // stats record six satellites, a convoy-length capped lag and an
  // uncapped retention far above the budget.
  run_session();
  // Session 2: the model prices that history — push would convoy and
  // copy every page six times; pull pays spill round trips instead.
  const std::vector<ResultSet> results = run_session();

  StageStats scan = engine.scan_stage()->GetStats();
  EXPECT_GT(scan.adaptive_pull_spill, 0)
      << "predicted retention above budget must be admitted pull+spill";
  EXPECT_EQ(scan.adaptive_push, 0);
  bool explained = false;
  for (const ResultSet& r : results) {
    ASSERT_NE(r.explain(), nullptr);
    for (const auto& stage : r.explain()->stages) {
      if (stage.spill_preferred) {
        explained = true;
        EXPECT_STREQ(stage.decided_by, "model");
        EXPECT_GT(stage.confidence, 0.0);
      }
    }
  }
  EXPECT_TRUE(explained)
      << "the pull+spill admission must show in the host's explain record";
}

}  // namespace
}  // namespace sharing
