// Unit tests for src/storage: pages, schema/tuples, disk manager, buffer
// pool, tables, circular shared scans.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "storage/buffer_pool.h"
#include "storage/circular_scan.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/tuple.h"
#include "test_util.h"

namespace sharing {
namespace {

// ---------------------------------------------------------------------------
// Schema / tuples
// ---------------------------------------------------------------------------

Schema FourColSchema() {
  return Schema({Column::Int64("a"), Column::Double("b"),
                 Column::DateCol("c"), Column::String("d", 10)});
}

TEST(SchemaTest, OffsetsArePacked) {
  Schema s = FourColSchema();
  EXPECT_EQ(s.row_width(), 8u + 8u + 4u + 10u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 8u);
  EXPECT_EQ(s.offset(2), 16u);
  EXPECT_EQ(s.offset(3), 20u);
}

TEST(SchemaTest, ColumnIndexByName) {
  Schema s = FourColSchema();
  EXPECT_EQ(s.ColumnIndex("c").value(), 2u);
  EXPECT_FALSE(s.ColumnIndex("nope").ok());
}

TEST(SchemaTest, ProjectSelectsAndReorders) {
  Schema s = FourColSchema();
  Schema p = s.Project({3, 0});
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column(0).name, "d");
  EXPECT_EQ(p.column(1).name, "a");
  EXPECT_EQ(p.row_width(), 18u);
}

TEST(SchemaTest, ConcatPrefixesCollidingNames) {
  Schema a({Column::Int64("k"), Column::Int64("x")});
  Schema b({Column::Int64("k"), Column::Int64("y")});
  Schema c = a.Concat(b);
  EXPECT_EQ(c.num_columns(), 4u);
  EXPECT_EQ(c.column(2).name, "r_k");
  EXPECT_EQ(c.column(3).name, "y");
}

TEST(TupleTest, WriteThenReadAllTypes) {
  Schema s = FourColSchema();
  std::vector<uint8_t> row(s.row_width());
  RowWriter w(row.data(), &s);
  w.SetInt64(0, -17)
      .SetDouble(1, 2.5)
      .SetDate(2, MakeDate(1995, 6, 17))
      .SetString(3, "hi");
  TupleRef t(row.data(), &s);
  EXPECT_EQ(t.GetInt64(0), -17);
  EXPECT_DOUBLE_EQ(t.GetDouble(1), 2.5);
  EXPECT_EQ(t.GetDate(2), MakeDate(1995, 6, 17));
  EXPECT_EQ(t.GetString(3), "hi");  // trailing pad trimmed
}

TEST(TupleTest, StringTruncatedToWidth) {
  Schema s({Column::String("s", 4)});
  std::vector<uint8_t> row(s.row_width());
  RowWriter(row.data(), &s).SetString(0, "abcdefgh");
  EXPECT_EQ(TupleRef(row.data(), &s).GetString(0), "abcd");
}

TEST(TupleTest, ToStringRendersRow) {
  Schema s({Column::Int64("a"), Column::String("b", 3)});
  std::vector<uint8_t> row(s.row_width());
  RowWriter(row.data(), &s).SetInt64(0, 5).SetString(1, "xy");
  EXPECT_EQ(TupleRef(row.data(), &s).ToString(), "(5, 'xy')");
}

// ---------------------------------------------------------------------------
// Page layout / RowPage
// ---------------------------------------------------------------------------

TEST(PageLayoutTest, InitAppendRead) {
  alignas(8) uint8_t frame[kPageBytes];
  page_layout::Init(frame, 16);
  EXPECT_TRUE(page_layout::Valid(frame));
  EXPECT_EQ(page_layout::RowCount(frame), 0u);

  uint8_t* slot = page_layout::AppendRow(frame, kPageBytes);
  ASSERT_NE(slot, nullptr);
  std::memset(slot, 0xAB, 16);
  EXPECT_EQ(page_layout::RowCount(frame), 1u);
  EXPECT_EQ(page_layout::RowAt(frame, 0)[0], 0xAB);
}

TEST(PageLayoutTest, AppendStopsAtCapacity) {
  alignas(8) uint8_t frame[kPageBytes];
  const uint32_t width = 1000;
  page_layout::Init(frame, width);
  uint32_t capacity = page_layout::Capacity(kPageBytes, width);
  for (uint32_t i = 0; i < capacity; ++i) {
    EXPECT_NE(page_layout::AppendRow(frame, kPageBytes), nullptr);
  }
  EXPECT_EQ(page_layout::AppendRow(frame, kPageBytes), nullptr);
}

TEST(RowPageTest, AppendAndIterate) {
  RowPage page(8, 64);
  EXPECT_EQ(page.capacity(), 8u);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(page.AppendRow(reinterpret_cast<const uint8_t*>(&i)));
  }
  EXPECT_TRUE(page.full());
  int64_t v;
  std::memcpy(&v, page.RowAt(7), 8);
  EXPECT_EQ(v, 7);
  int64_t extra = 9;
  EXPECT_FALSE(page.AppendRow(reinterpret_cast<const uint8_t*>(&extra)));
}

// ---------------------------------------------------------------------------
// DiskManager
// ---------------------------------------------------------------------------

TEST(DiskManagerTest, RoundTripInMemory) {
  MetricsRegistry metrics;
  DiskManager disk(DiskOptions{}, &metrics);
  PageId id = disk.AllocatePage();
  std::vector<uint8_t> out(kPageBytes, 0x5A);
  ASSERT_TRUE(disk.WritePage(id, out.data()).ok());
  std::vector<uint8_t> in(kPageBytes);
  ASSERT_TRUE(disk.ReadPage(id, in.data()).ok());
  EXPECT_EQ(in, out);
}

TEST(DiskManagerTest, ReadUnallocatedFails) {
  MetricsRegistry metrics;
  DiskManager disk(DiskOptions{}, &metrics);
  std::vector<uint8_t> buf(kPageBytes);
  EXPECT_EQ(disk.ReadPage(99, buf.data()).code(), StatusCode::kOutOfRange);
}

TEST(DiskManagerTest, FileBackedRoundTrip) {
  MetricsRegistry metrics;
  DiskOptions options;
  options.path = ::testing::TempDir() + "/sharing_disk_test.db";
  DiskManager disk(options, &metrics);
  PageId a = disk.AllocatePage();
  PageId b = disk.AllocatePage();
  std::vector<uint8_t> pa(kPageBytes, 1), pb(kPageBytes, 2);
  ASSERT_TRUE(disk.WritePage(a, pa.data()).ok());
  ASSERT_TRUE(disk.WritePage(b, pb.data()).ok());
  std::vector<uint8_t> in(kPageBytes);
  ASSERT_TRUE(disk.ReadPage(b, in.data()).ok());
  EXPECT_EQ(in[0], 2);
  ASSERT_TRUE(disk.ReadPage(a, in.data()).ok());
  EXPECT_EQ(in[0], 1);
}

TEST(DiskManagerTest, LatencyModelCharged) {
  MetricsRegistry metrics;
  DiskOptions options;
  options.read_latency_micros = 2000;
  DiskManager disk(options, &metrics);
  PageId id = disk.AllocatePage();
  std::vector<uint8_t> buf(kPageBytes);
  ASSERT_TRUE(disk.WritePage(id, buf.data()).ok());
  Stopwatch timer;
  ASSERT_TRUE(disk.ReadPage(id, buf.data()).ok());
  EXPECT_GE(timer.ElapsedMicros(), 1500);

  // A short modeled seek (the disk-resident benchmarks' 55us) still
  // waits the full model but holds no core while it waits: the reading
  // thread sleeps, as it would on a real device.
  disk.SetLatencyModel(55, 0);
  constexpr int kReads = 40;
  Stopwatch wall;
  const int64_t cpu_start = ThreadCpuNanos();
  for (int i = 0; i < kReads; ++i) {
    ASSERT_TRUE(disk.ReadPage(id, buf.data()).ok());
  }
  const int64_t cpu_micros = (ThreadCpuNanos() - cpu_start) / 1000;
  const int64_t wall_micros = wall.ElapsedMicros();
  EXPECT_GE(wall_micros, kReads * 55);
  EXPECT_LT(cpu_micros, wall_micros / 2)
      << cpu_micros << "us CPU in " << wall_micros << "us";
}

TEST(DiskManagerTest, CountsReadsAndWrites) {
  MetricsRegistry metrics;
  DiskManager disk(DiskOptions{}, &metrics);
  PageId id = disk.AllocatePage();
  std::vector<uint8_t> buf(kPageBytes);
  ASSERT_TRUE(disk.WritePage(id, buf.data()).ok());
  ASSERT_TRUE(disk.ReadPage(id, buf.data()).ok());
  ASSERT_TRUE(disk.ReadPage(id, buf.data()).ok());
  EXPECT_EQ(metrics.GetCounter(metrics::kDiskPageReads)->Get(), 2);
  EXPECT_EQ(metrics.GetCounter(metrics::kDiskPageWrites)->Get(), 1);
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<DiskManager>(DiskOptions{}, &metrics_);
  }

  PageId NewFilledPage(BufferPool* pool, uint8_t fill) {
    PageId id;
    auto guard_or = pool->NewPage(/*row_width=*/8, &id);
    EXPECT_TRUE(guard_or.ok());
    uint8_t* slot =
        page_layout::AppendRow(guard_or.value().mutable_data(), kPageBytes);
    std::memset(slot, fill, 8);
    return id;
  }

  MetricsRegistry metrics_;
  std::unique_ptr<DiskManager> disk_;
};

TEST_F(BufferPoolTest, HitAfterMiss) {
  BufferPool pool(disk_.get(), 4, &metrics_);
  PageId id = NewFilledPage(&pool, 0x11);
  ASSERT_TRUE(pool.FlushAll().ok());
  {
    auto g = pool.FetchPage(id);
    ASSERT_TRUE(g.ok());  // still resident: hit
  }
  auto stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 1);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  BufferPool pool(disk_.get(), 2, &metrics_);
  PageId a = NewFilledPage(&pool, 0xAA);
  // Fill remaining frames to force eviction of `a`.
  NewFilledPage(&pool, 0xBB);
  NewFilledPage(&pool, 0xCC);
  NewFilledPage(&pool, 0xDD);
  auto g = pool.FetchPage(a);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(page_layout::RowAt(g.value().data(), 0)[0], 0xAA);
  EXPECT_GT(pool.GetStats().evictions, 0);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(disk_.get(), 2, &metrics_);
  PageId a = NewFilledPage(&pool, 1);
  PageId b = NewFilledPage(&pool, 2);
  auto ga = pool.FetchPage(a);
  auto gb = pool.FetchPage(b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  // Both frames pinned: a third page cannot be brought in.
  PageId c;
  auto gc = pool.NewPage(8, &c);
  EXPECT_EQ(gc.status().code(), StatusCode::kUnavailable);
}

TEST_F(BufferPoolTest, ReleaseUnpins) {
  BufferPool pool(disk_.get(), 1, &metrics_);
  PageId a = NewFilledPage(&pool, 1);
  auto ga = pool.FetchPage(a);
  ASSERT_TRUE(ga.ok());
  ga.value().Release();
  PageId b;
  EXPECT_TRUE(pool.NewPage(8, &b).ok());
}

TEST_F(BufferPoolTest, ConcurrentFetchesOfSamePage) {
  BufferPool pool(disk_.get(), 8, &metrics_);
  PageId id = NewFilledPage(&pool, 0x7E);
  ASSERT_TRUE(pool.FlushAll().ok());

  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto g = pool.FetchPage(id);
        if (g.ok() && page_layout::RowAt(g.value().data(), 0)[0] == 0x7E) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 8 * 200);
}

TEST_F(BufferPoolTest, FailedWriteBackKeepsTheDirtyPage) {
  BufferPool pool(disk_.get(), 1, &metrics_);
  PageId a = NewFilledPage(&pool, 0xA5);  // resident and dirty
  ASSERT_TRUE(FaultRegistry::Global().Arm("disk.write=once").ok());
  PageId b;
  auto gb = pool.NewPage(8, &b);  // must evict `a`: the write-back fails
  FaultRegistry::Global().Disarm();
  EXPECT_EQ(gb.status().code(), StatusCode::kIoError);
  EXPECT_EQ(pool.GetStats().evictions, 0);
  {
    auto ga = pool.FetchPage(a);
    ASSERT_TRUE(ga.ok()) << ga.status().ToString();
    EXPECT_EQ(page_layout::RowAt(ga.value().data(), 0)[0], 0xA5);
  }
  // The retried eviction writes it back; the bytes survive the round trip.
  ASSERT_TRUE(pool.NewPage(8, &b).ok());
  auto ga = pool.FetchPage(a);
  ASSERT_TRUE(ga.ok()) << ga.status().ToString();
  EXPECT_EQ(page_layout::RowAt(ga.value().data(), 0)[0], 0xA5);
}

/// A table of `n` flushed pages whose single row is filled with the page's
/// index, written through a throwaway pool so the pool under test starts
/// cold.
std::vector<PageId> MakeFlushedPages(DiskManager* disk, std::size_t n) {
  MetricsRegistry metrics;
  BufferPool writer(disk, 4, &metrics);
  std::vector<PageId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    PageId id;
    auto g = writer.NewPage(/*row_width=*/8, &id);
    EXPECT_TRUE(g.ok());
    std::memset(page_layout::AppendRow(g.value().mutable_data(), kPageBytes),
                static_cast<int>(i), 8);
    ids.push_back(id);
  }
  EXPECT_TRUE(writer.FlushAll().ok());
  return ids;
}

TEST_F(BufferPoolTest, VictimListKeepsALoopingScanResident) {
  constexpr std::size_t kFrames = 16;
  const std::vector<PageId> table = MakeFlushedPages(disk_.get(), 2 * kFrames);
  const int64_t n = static_cast<int64_t>(table.size());
  // Four cycles over the table; returns the misses of each.
  auto cycle_misses = [&](BufferPool* pool, bool as_next_victim) {
    std::vector<int64_t> misses;
    for (int cycle = 0; cycle < 4; ++cycle) {
      const int64_t before = pool->GetStats().misses;
      for (std::size_t p = 0; p < table.size(); ++p) {
        auto g = pool->FetchPage(table[p]);
        EXPECT_TRUE(g.ok());
        EXPECT_EQ(page_layout::RowAt(g.value().data(), 0)[0],
                  static_cast<uint8_t>(p));
        if (as_next_victim) g.value().ReleaseAsNextVictim();
      }
      misses.push_back(pool->GetStats().misses - before);
    }
    return misses;
  };

  {
    // The flood: under the clock alone a loop over 2x the frames misses
    // on every page of every cycle.
    MetricsRegistry metrics;
    BufferPool pool(disk_.get(), kFrames, &metrics);
    for (int64_t m : cycle_misses(&pool, false)) EXPECT_EQ(m, n);
  }
  MetricsRegistry metrics;
  BufferPool pool(disk_.get(), kFrames, &metrics);
  std::vector<int64_t> misses = cycle_misses(&pool, true);
  EXPECT_EQ(misses[0], n);
  for (int cycle = 1; cycle < 4; ++cycle) {
    EXPECT_LE(misses[cycle], n - static_cast<int64_t>(kFrames) + 8)
        << "cycle " << cycle;
  }
}

TEST_F(BufferPoolTest, ReReferencedPageLeavesTheVictimList) {
  const std::vector<PageId> pages = MakeFlushedPages(disk_.get(), 5);
  BufferPool pool(disk_.get(), 4, &metrics_);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(pool.FetchPage(pages[i]).ok());
  // Pages 0 then 1 are released as next victims: the list is [1, 0].
  pool.FetchPage(pages[0]).value().ReleaseAsNextVictim();
  pool.FetchPage(pages[1]).value().ReleaseAsNextVictim();
  // Another reader fetches page 1 again before any eviction.
  ASSERT_TRUE(pool.FetchPage(pages[1]).ok());
  ASSERT_TRUE(pool.FetchPage(pages[4]).ok());
  EXPECT_TRUE(pool.IsResident(pages[1]));
  EXPECT_FALSE(pool.IsResident(pages[0])) << "page 0 was the next victim";
  EXPECT_TRUE(pool.IsResident(pages[2]));
  EXPECT_TRUE(pool.IsResident(pages[3]));
}

TEST_F(BufferPoolTest, PinnedAndDirtyFramesNeverReachTheVictimList) {
  const std::vector<PageId> pages = MakeFlushedPages(disk_.get(), 4);
  BufferPool pool(disk_.get(), 2, &metrics_);
  // A cold pool hands out frames in order, so page 1 sits under the clock
  // hand: the clock alone would evict it, and page 0 survives unless it
  // (wrongly) went onto the victim list.
  ASSERT_TRUE(pool.FetchPage(pages[1]).ok());
  {
    auto first = pool.FetchPage(pages[0]);
    auto second = pool.FetchPage(pages[0]);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    first.value().ReleaseAsNextVictim();  // still pinned by `second`
  }
  ASSERT_TRUE(pool.FetchPage(pages[2]).ok());
  EXPECT_TRUE(pool.IsResident(pages[0])) << "a pinned hint must be dropped";
  EXPECT_FALSE(pool.IsResident(pages[1]));

  // The hand now points at page 0's frame; page 2 is made dirty and hinted.
  {
    auto dirty = pool.FetchPage(pages[2]);
    ASSERT_TRUE(dirty.ok());
    dirty.value().mutable_data();
    dirty.value().ReleaseAsNextVictim();
  }
  ASSERT_TRUE(pool.FetchPage(pages[3]).ok());
  EXPECT_TRUE(pool.IsResident(pages[2])) << "a dirty hint must be dropped";
  EXPECT_FALSE(pool.IsResident(pages[0]));
}

TEST_F(BufferPoolTest, PageEvictedOffTheVictimListIsReReadExactly) {
  const std::vector<PageId> pages = MakeFlushedPages(disk_.get(), 3);
  BufferPool pool(disk_.get(), 2, &metrics_);
  std::vector<uint8_t> before(kPageBytes);
  {
    auto g = pool.FetchPage(pages[0]);
    ASSERT_TRUE(g.ok());
    std::memcpy(before.data(), g.value().data(), kPageBytes);
    g.value().ReleaseAsNextVictim();
  }
  ASSERT_TRUE(pool.FetchPage(pages[1]).ok());  // a free frame
  ASSERT_TRUE(pool.FetchPage(pages[2]).ok());  // evicts page 0
  EXPECT_FALSE(pool.IsResident(pages[0]));
  EXPECT_TRUE(pool.IsResident(pages[1]));
  auto g = pool.FetchPage(pages[0]);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(std::memcmp(before.data(), g.value().data(), kPageBytes), 0);
}

// ---------------------------------------------------------------------------
// Table / Catalog
// ---------------------------------------------------------------------------

TEST(TableTest, AppendSpansPages) {
  auto db = testing::MakeTestDatabase();
  // Row width 16 -> ~511 rows per 8KiB page; 2000 rows -> 4 pages.
  Table* table = testing::MakeSimpleTable(db.get(), "t", 2000);
  EXPECT_EQ(table->num_rows(), 2000u);
  EXPECT_EQ(table->num_pages(), 4u);
}

TEST(TableTest, RowsSurviveFlushAndReread) {
  auto db = testing::MakeTestDatabase();
  Table* table = testing::MakeSimpleTable(db.get(), "t", 600);
  int64_t sum = 0;
  for (std::size_t p = 0; p < table->num_pages(); ++p) {
    auto g = db->buffer_pool()->FetchPage(table->page_id(p));
    ASSERT_TRUE(g.ok());
    const uint8_t* frame = g.value().data();
    for (uint32_t i = 0; i < page_layout::RowCount(frame); ++i) {
      TupleRef row(page_layout::RowAt(frame, i), &table->schema());
      sum += row.GetInt64(0);
    }
  }
  EXPECT_EQ(sum, 600 * 599 / 2);
}

TEST(CatalogTest, DuplicateNameRejected) {
  auto db = testing::MakeTestDatabase();
  testing::MakeSimpleTable(db.get(), "t", 10);
  Schema s({Column::Int64("x")});
  auto dup = db->catalog()->CreateTable("t", s, db->buffer_pool());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, LookupByName) {
  auto db = testing::MakeTestDatabase();
  testing::MakeSimpleTable(db.get(), "alpha", 10);
  EXPECT_TRUE(db->catalog()->GetTable("alpha").ok());
  EXPECT_EQ(db->catalog()->GetTable("beta").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// CircularScanGroup
// ---------------------------------------------------------------------------

TEST(CircularScanTest, SingleConsumerSeesWholeTableOnce) {
  auto db = testing::MakeTestDatabase();
  Table* table = testing::MakeSimpleTable(db.get(), "t", 2000);
  CircularScanGroup group(table, 4, db->metrics());
  auto ticket = group.Attach();
  std::set<uint64_t> positions;
  while (ScanPageRef page = ticket->Next()) {
    EXPECT_TRUE(positions.insert(page->position).second)
        << "page delivered twice";
  }
  EXPECT_EQ(positions.size(), table->num_pages());
}

TEST(CircularScanTest, LoneTicketSpawnsNoThread) {
  auto db = testing::MakeTestDatabase();
  Table* table = testing::MakeSimpleTable(db.get(), "t", 2000);
  CircularScanGroup group(table, 4, db->metrics());
  const int threads_before = testing::ProcessThreads();
  ASSERT_GT(threads_before, 0);
  // The ticket claims and reads every page on the test thread.
  auto ticket = group.Attach();
  std::size_t pages = 0;
  while (ticket->Next()) ++pages;
  EXPECT_EQ(pages, table->num_pages());
  EXPECT_EQ(testing::ProcessThreads(), threads_before);
}

TEST(CircularScanTest, ConcurrentConsumersShareOneStream) {
  auto db = testing::MakeTestDatabase();
  Table* table = testing::MakeSimpleTable(db.get(), "t", 4000);
  const int64_t n_pages = static_cast<int64_t>(table->num_pages());
  constexpr std::size_t kQueueDepth = 4;
  constexpr int kScanners = 4;
  auto before = db->metrics()->Snapshot();
  {
    CircularScanGroup group(table, kQueueDepth, db->metrics());
    // Every scanner attaches before any of them drains, so no scheduling
    // delay can make one attach a cycle late.
    std::vector<std::unique_ptr<CircularScanGroup::Ticket>> tickets;
    for (int s = 0; s < kScanners; ++s) tickets.push_back(group.Attach());
    std::vector<std::thread> threads;
    std::atomic<int> total_pages{0};
    for (auto& ticket : tickets) {
      threads.emplace_back([&total_pages, t = ticket.get()] {
        int n = 0;
        while (t->Next()) ++n;
        total_pages.fetch_add(n);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(total_pages.load(), kScanners * static_cast<int>(n_pages));
  }
  auto delta = MetricsRegistry::Delta(before, db->metrics()->Snapshot());
  // The claimers read each page once per cycle, NOT once per scanner:
  // unshared scans would read exactly 4x the table. A claimer can fill
  // another scanner's queue and block delivering one more page, so a
  // scanner that joins late joins at most kQueueDepth + 1 pages into the
  // cycle and finishes that far into the next.
  EXPECT_LE(delta[metrics::kScanPagesRead],
            n_pages + static_cast<int64_t>(kQueueDepth) + 1);
  EXPECT_GE(delta[metrics::kScanSharedAttach], kScanners - 1);
}

TEST(CircularScanTest, MidStreamAttachWrapsAround) {
  auto db = testing::MakeTestDatabase();
  Table* table = testing::MakeSimpleTable(db.get(), "t", 3000);
  CircularScanGroup group(table, 2, db->metrics());

  auto first = group.Attach();
  // Consume half the table on the first ticket.
  for (std::size_t i = 0; i < table->num_pages() / 2; ++i) {
    ASSERT_NE(first->Next(), nullptr);
  }
  // Second scanner attaches mid-cycle; it must still see every page once.
  auto second = group.Attach();
  std::set<uint64_t> seen;
  std::thread drain_first([&] {
    while (first->Next()) {
    }
  });
  while (ScanPageRef page = second->Next()) {
    EXPECT_TRUE(seen.insert(page->position).second);
  }
  drain_first.join();
  EXPECT_EQ(seen.size(), table->num_pages());
}

TEST(CircularScanTest, CancelDetachesWithoutBlockingOthers) {
  auto db = testing::MakeTestDatabase();
  Table* table = testing::MakeSimpleTable(db.get(), "t", 3000);
  CircularScanGroup group(table, 2, db->metrics());

  auto quitter = group.Attach();
  auto stayer = group.Attach();
  ASSERT_NE(quitter->Next(), nullptr);
  quitter->Cancel();
  EXPECT_EQ(quitter->Next(), nullptr);

  int n = 0;
  while (stayer->Next()) ++n;
  EXPECT_EQ(n, static_cast<int>(table->num_pages()));
}

TEST(CircularScanTest, EmptyTableYieldsNothing) {
  auto db = testing::MakeTestDatabase();
  Schema s({Column::Int64("x")});
  auto table_or = db->catalog()->CreateTable("empty", s, db->buffer_pool());
  ASSERT_TRUE(table_or.ok());
  CircularScanGroup group(table_or.value(), 2, db->metrics());
  auto ticket = group.Attach();
  EXPECT_EQ(ticket->Next(), nullptr);
}

// ---------------------------------------------------------------------------
// The looping-scan release rule (LoopsPastPool)
// ---------------------------------------------------------------------------

/// A database whose pool holds kFrames pages. Tests load their tables,
/// then StartCold() writes back and evicts every page.
class LoopingScanTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kFrames = 32;

  void SetUp() override { db_ = testing::MakeTestDatabase(kFrames); }

  /// A simple table (16-byte rows) of exactly `pages` full pages.
  Table* MakeTable(const std::string& name, std::size_t pages) {
    Table* table = testing::MakeSimpleTable(
        db_.get(), name,
        static_cast<int64_t>(pages * page_layout::Capacity(kPageBytes, 16)));
    EXPECT_EQ(table->num_pages(), pages);
    return table;
  }

  void StartCold() {
    ASSERT_TRUE(pool()->FlushAll().ok());
    ASSERT_TRUE(pool()->EvictAll().ok());
  }

  BufferPool* pool() { return db_->buffer_pool(); }
  int64_t misses() { return pool()->GetStats().misses; }

  /// Attaches one scanner and drains a full cycle; returns its misses.
  int64_t ScanCycle(CircularScanGroup* group) {
    const int64_t before = misses();
    auto ticket = group->Attach();
    std::size_t pages = 0;
    while (ticket->Next()) ++pages;
    EXPECT_EQ(pages, group->table()->num_pages());
    return misses() - before;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(LoopingScanTest, LoopingScanLeavesOtherTablesResident) {
  Table* big = MakeTable("big", 2 * kFrames);
  Table* small = MakeTable("small", 2);
  const int64_t n_big = static_cast<int64_t>(big->num_pages());
  ASSERT_TRUE(LoopsPastPool(big));
  ASSERT_FALSE(LoopsPastPool(small));
  StartCold();
  for (std::size_t p = 0; p < small->num_pages(); ++p) {
    ASSERT_TRUE(pool()->FetchPage(small->page_id(p)).ok());
  }

  CircularScanGroup group(big, 4, db_->metrics());
  EXPECT_EQ(ScanCycle(&group), n_big) << "the first cycle runs cold";
  // Under the clock alone every page of the second cycle would miss, as
  // the loop evicts each page just before it comes round again. Released
  // as the next victim, the consumed pages recycle one another's frames
  // and most of the rest of the pool stays resident across cycles.
  EXPECT_LE(ScanCycle(&group), n_big - static_cast<int64_t>(kFrames) / 2);
  for (std::size_t p = 0; p < small->num_pages(); ++p) {
    EXPECT_TRUE(pool()->IsResident(small->page_id(p)))
        << "small-table page " << p << " was flushed by the loop";
  }
}

TEST_F(LoopingScanTest, SharedPageIsHintedOnlyByItsLastReference) {
  Table* big = MakeTable("big", kFrames + kFrames / 2);
  Table* other = MakeTable("other", kFrames);
  ASSERT_TRUE(LoopsPastPool(big));
  StartCold();

  // Each scanner drains on its own thread and keeps its copy of the
  // middle page. The first attach starts the cycle at position 0 and the
  // second joins a few pages in, so both see the middle page from the
  // same fetch, as one shared ScanPage.
  const uint64_t middle = big->num_pages() / 2;
  ScanPageRef held_a, held_b;
  {
    CircularScanGroup group(big, 1, db_->metrics());
    auto a = group.Attach();
    auto b = group.Attach();
    auto drain = [middle](CircularScanGroup::Ticket* ticket,
                          ScanPageRef* held) {
      while (ScanPageRef page = ticket->Next()) {
        if (page->position == middle) *held = std::move(page);
      }
    };
    std::thread drain_a(drain, a.get(), &held_a);
    drain(b.get(), &held_b);
    drain_a.join();
  }  // both cycles are done: only the held page is still pinned
  ASSERT_NE(held_b, nullptr);
  ASSERT_EQ(held_a, held_b);
  EXPECT_TRUE(held_b->loops_past_pool);
  const PageId pid = held_b->guard.page_id();

  // The first consumer lets go: the second still reads the frame, so it
  // stays pinned and even EvictAll leaves it.
  held_a.reset();
  ASSERT_TRUE(pool()->EvictAll().ok());
  EXPECT_TRUE(pool()->IsResident(pid)) << "unpinned under a live reference";

  // Fill every other frame from a table read with the plain release; the
  // last reference then hints the page, and the next miss takes it.
  for (std::size_t p = 0; p + 1 < kFrames; ++p) {
    ASSERT_TRUE(pool()->FetchPage(other->page_id(p)).ok());
  }
  held_b.reset();
  ASSERT_TRUE(pool()->FetchPage(other->page_id(kFrames - 1)).ok());
  EXPECT_FALSE(pool()->IsResident(pid)) << "the last reference's hint";
  for (std::size_t p = 0; p + 1 < kFrames; ++p) {
    EXPECT_TRUE(pool()->IsResident(other->page_id(p))) << "page " << p;
  }
}

TEST_F(LoopingScanTest, TableThatFitsThePoolGetsNoHint) {
  // Exactly as many pages as frames: the boundary, still no loop.
  Table* table = MakeTable("fits", kFrames);
  ASSERT_FALSE(LoopsPastPool(table));
  StartCold();

  CircularScanGroup group(table, 4, db_->metrics());
  {
    auto ticket = group.Attach();
    while (ScanPageRef page = ticket->Next()) {
      EXPECT_FALSE(page->loops_past_pool);
    }
  }
  EXPECT_EQ(ScanCycle(&group), 0) << "the second cycle is all hits";
}

TEST_F(LoopingScanTest, CancelWithPagesQueuedLeavesEveryFrameUnpinned) {
  constexpr std::size_t kQueueDepth = 4;
  Table* big = MakeTable("big", 2 * kFrames);
  ASSERT_TRUE(LoopsPastPool(big));
  StartCold();

  CircularScanGroup group(big, kQueueDepth, db_->metrics());
  auto laggard = group.Attach();
  auto leader = group.Attach();
  // The leader claims every page and queues it for the laggard, which
  // never reads: once its queue is full, the leader blocks delivering
  // the page after it.
  std::thread drain_leader([&] {
    while (leader->Next()) {
    }
  });
  const int64_t queued_and_blocked = kQueueDepth + 1;
  Stopwatch waited;
  while (misses() < queued_and_blocked && waited.ElapsedSeconds() < 10) {
    std::this_thread::yield();
  }
  const int64_t missed = misses();

  laggard->Cancel();
  drain_leader.join();
  ASSERT_EQ(missed, queued_and_blocked);
  while (group.ActiveConsumers() > 0 && waited.ElapsedSeconds() < 10) {
    std::this_thread::yield();
  }
  ASSERT_EQ(group.ActiveConsumers(), 0u);
  // Every page the scan touched is unpinned, so EvictAll drops them all.
  ASSERT_TRUE(pool()->EvictAll().ok());
  for (std::size_t p = 0; p < big->num_pages(); ++p) {
    EXPECT_FALSE(pool()->IsResident(big->page_id(p))) << "page " << p;
  }
}

}  // namespace
}  // namespace sharing
