// Tests for the asynchronous I/O subsystem: IoScheduler priority
// ordering, token-bucket budget throttling, cancellation and shutdown
// semantics, the DiskManager submit-style async page API, the spill
// tier's durability-before-unpin contract (pages stay resident and
// readable until their async spill write lands), the governor's
// effective (post-async-window) retention accounting, and circular-scan
// readahead including attach/detach/cancel stress and slow-consumer
// backpressure.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "io/io_scheduler.h"
#include "qpipe/shared_pages_list.h"
#include "qpipe/sp_budget_governor.h"
#include "storage/circular_scan.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::MakeSimpleTable;
using testing::MakeTestDatabase;

/// A manually opened gate: jobs block in their work fn until the test
/// releases them, so queue contents can be inspected deterministically.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void Await() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return open; });
  }
};

IoScheduler::Options SchedulerOptions(MetricsRegistry* metrics,
                                      std::size_t threads,
                                      std::size_t budget_mib = 0) {
  IoScheduler::Options options;
  options.threads = threads;
  options.budget_mib_per_sec = budget_mib;
  options.metrics = metrics;
  return options;
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

// ---------------------------------------------------------------------------
// IoScheduler: priority ordering
// ---------------------------------------------------------------------------

TEST(IoSchedulerTest, StrictPriorityOrderAcrossClasses) {
  MetricsRegistry metrics;
  IoScheduler scheduler(SchedulerOptions(&metrics, 1));

  // Park the single worker on a gate so the next three jobs are queued
  // together; submission order is deliberately worst-to-best priority.
  Gate gate;
  Gate blocker_started;
  IoTicketRef blocker = scheduler.Submit(IoPriority::kScanPrefetch, 0, [&] {
    blocker_started.Open();
    gate.Await();
    return Status::OK();
  });
  ASSERT_NE(blocker, nullptr);
  blocker_started.Await();  // the worker holds the blocker, not the queue

  std::mutex order_mutex;
  std::vector<IoPriority> order;
  auto record = [&](IoPriority p) {
    return [&order, &order_mutex, p] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(p);
      return Status::OK();
    };
  };
  IoTicketRef spill =
      scheduler.Submit(IoPriority::kSpillWrite, 0, record(IoPriority::kSpillWrite));
  IoTicketRef fault =
      scheduler.Submit(IoPriority::kFaultBack, 0, record(IoPriority::kFaultBack));
  IoTicketRef scan = scheduler.Submit(IoPriority::kScanPrefetch, 0,
                                      record(IoPriority::kScanPrefetch));
  EXPECT_EQ(scheduler.QueueDepth(), 3u);
  EXPECT_EQ(metrics.GetGauge(metrics::kIoQueueDepth)->Get(), 3);

  gate.Open();
  EXPECT_TRUE(blocker->Wait().ok());
  EXPECT_TRUE(spill->Wait().ok());
  EXPECT_TRUE(fault->Wait().ok());
  EXPECT_TRUE(scan->Wait().ok());

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], IoPriority::kScanPrefetch);
  EXPECT_EQ(order[1], IoPriority::kFaultBack);
  EXPECT_EQ(order[2], IoPriority::kSpillWrite);
  EXPECT_EQ(scheduler.QueueDepth(), 0u);
  EXPECT_EQ(metrics.GetGauge(metrics::kIoQueueDepth)->Get(), 0);
  // Direction accounting: three read-class jobs + the read-class
  // blocker, one write-class job.
  EXPECT_EQ(metrics.GetCounter(metrics::kIoReadsIssued)->Get(), 3);
  EXPECT_EQ(metrics.GetCounter(metrics::kIoWritesIssued)->Get(), 1);
}

// ---------------------------------------------------------------------------
// IoScheduler: token-bucket budget
// ---------------------------------------------------------------------------

TEST(IoSchedulerTest, BudgetThrottlesAndAccountsStall) {
  MetricsRegistry metrics;
  // 2 MiB/s per class, 512 KiB burst: 2 MiB of jobs must take well over
  // half the nominal second even with the full burst up front.
  IoScheduler scheduler(SchedulerOptions(&metrics, 1, /*budget_mib=*/2));

  constexpr std::size_t kJobBytes = 64 * 1024;
  constexpr int kJobs = 32;  // 2 MiB total
  std::vector<IoTicketRef> tickets;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kJobs; ++i) {
    tickets.push_back(scheduler.Submit(IoPriority::kFaultBack, kJobBytes,
                                       [] { return Status::OK(); }));
  }
  for (const auto& ticket : tickets) {
    ASSERT_NE(ticket, nullptr);
    EXPECT_TRUE(ticket->Wait().ok());
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // (2 MiB - 512 KiB burst) / 2 MiB/s = 0.75 s nominal; allow generous
  // slack for CI-noise while still proving throttling happened.
  EXPECT_GT(elapsed, 0.25);
  EXPECT_GT(metrics.GetCounter(metrics::kIoStallMicros)->Get(), 100000);
}

TEST(IoSchedulerTest, ThrottledClassDoesNotBlockOtherClasses) {
  MetricsRegistry metrics;
  IoScheduler scheduler(SchedulerOptions(&metrics, 1, /*budget_mib=*/1));

  // Exhaust the scan-prefetch bucket (256 KiB burst at 1 MiB/s) with one
  // oversized job, then submit a fault-back job: it must not wait the
  // ~2s the prefetch class needs to recover.
  IoTicketRef big = scheduler.Submit(IoPriority::kScanPrefetch,
                                     2 * 1024 * 1024, [] {
                                       return Status::OK();
                                     });
  ASSERT_NE(big, nullptr);
  ASSERT_TRUE(big->Wait().ok());
  IoTicketRef drained = scheduler.Submit(IoPriority::kScanPrefetch, 1024,
                                         [] { return Status::OK(); });
  const auto t0 = std::chrono::steady_clock::now();
  IoTicketRef fault = scheduler.Submit(IoPriority::kFaultBack, 1024,
                                       [] { return Status::OK(); });
  ASSERT_NE(fault, nullptr);
  EXPECT_TRUE(fault->Wait().ok());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 1.0)
      << "a dry higher-priority bucket must yield, not head-of-line block";
  ASSERT_NE(drained, nullptr);
  EXPECT_TRUE(drained->Wait().ok());
}

// ---------------------------------------------------------------------------
// IoScheduler: cancellation and shutdown
// ---------------------------------------------------------------------------

TEST(IoSchedulerTest, CancelledQueuedJobNeverRuns) {
  MetricsRegistry metrics;
  IoScheduler scheduler(SchedulerOptions(&metrics, 1));

  Gate gate;
  IoTicketRef blocker = scheduler.Submit(IoPriority::kFaultBack, 0, [&] {
    gate.Await();
    return Status::OK();
  });
  ASSERT_NE(blocker, nullptr);

  std::atomic<bool> ran{false};
  std::atomic<bool> skipped{false};
  IoTicketRef victim = scheduler.Submit(
      IoPriority::kFaultBack, 0,
      [&] {
        ran = true;
        return Status::OK();
      },
      /*on_skip=*/[&] { skipped = true; });
  ASSERT_NE(victim, nullptr);

  EXPECT_TRUE(victim->TryCancel());
  EXPECT_FALSE(victim->TryCancel()) << "second cancel is a no-op";
  gate.Open();
  Status st = victim->Wait();
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_FALSE(ran.load());
  EXPECT_TRUE(skipped.load());
  EXPECT_TRUE(blocker->Wait().ok());
  EXPECT_FALSE(blocker->TryCancel()) << "a finished job cannot be cancelled";
}

TEST(IoSchedulerTest, ShutdownDropsQueuedJobsAndFiresSkipHooks) {
  MetricsRegistry metrics;
  auto scheduler =
      std::make_unique<IoScheduler>(SchedulerOptions(&metrics, 1));

  Gate gate;
  Gate blocker_started;
  IoTicketRef blocker = scheduler->Submit(IoPriority::kSpillWrite, 0, [&] {
    blocker_started.Open();
    gate.Await();
    return Status::OK();
  });
  ASSERT_NE(blocker, nullptr);
  blocker_started.Await();  // ensure Shutdown drops only the queued job
  std::atomic<bool> ran{false};
  std::atomic<bool> skipped{false};
  IoTicketRef queued = scheduler->Submit(
      IoPriority::kSpillWrite, 0,
      [&] {
        ran = true;
        return Status::OK();
      },
      /*on_skip=*/[&] { skipped = true; });
  ASSERT_NE(queued, nullptr);

  // Shutdown drops the queued job immediately (before joining the still
  // blocked worker), so its ticket resolves while the blocker runs.
  std::thread shutdown_thread([&] { scheduler->Shutdown(); });
  EXPECT_EQ(queued->Wait().code(), StatusCode::kAborted);
  EXPECT_TRUE(skipped.load());
  EXPECT_FALSE(ran.load());

  gate.Open();
  shutdown_thread.join();
  EXPECT_TRUE(blocker->Wait().ok()) << "running jobs finish at shutdown";
  EXPECT_EQ(scheduler->Submit(IoPriority::kFaultBack, 0,
                              [] { return Status::OK(); }),
            nullptr)
      << "submissions after shutdown are refused";
}

// ---------------------------------------------------------------------------
// DiskManager: submit-style async page I/O
// ---------------------------------------------------------------------------

TEST(IoSchedulerTest, DiskManagerAsyncReadWriteRoundTrip) {
  MetricsRegistry metrics;
  IoScheduler scheduler(SchedulerOptions(&metrics, 2));
  DiskManager disk(DiskOptions{}, &metrics);

  const PageId id = disk.AllocatePage();
  std::vector<uint8_t> data(kPageBytes);
  for (std::size_t i = 0; i < kPageBytes; ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + 7);
  }
  IoTicketRef write = disk.WritePageAsync(&scheduler, IoPriority::kSpillWrite,
                                          id, data);
  ASSERT_NE(write, nullptr);
  ASSERT_TRUE(write->Wait().ok());

  uint8_t back[kPageBytes];
  IoTicketRef read =
      disk.ReadPageAsync(&scheduler, IoPriority::kFaultBack, id, back);
  ASSERT_NE(read, nullptr);
  ASSERT_TRUE(read->Wait().ok());
  EXPECT_EQ(0, std::memcmp(back, data.data(), kPageBytes));

  // Errors surface through the ticket like any other status.
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("disk.read=once"));
  IoTicketRef failing =
      disk.ReadPageAsync(&scheduler, IoPriority::kFaultBack, id, back);
  ASSERT_NE(failing, nullptr);
  EXPECT_EQ(failing->Wait().code(), StatusCode::kIoError);
  FaultRegistry::Global().Disarm();
}

// ---------------------------------------------------------------------------
// IoScheduler: transient-failure retry with backoff
// ---------------------------------------------------------------------------

TEST(IoSchedulerTest, TransientFailureRetriedToSuccess) {
  MetricsRegistry metrics;
  IoScheduler::Options options = SchedulerOptions(&metrics, 1);
  options.retry_limit = 3;
  options.retry_backoff_micros = 50;  // keep the test fast
  IoScheduler scheduler(options);

  std::atomic<int> attempts{0};
  IoTicketRef ticket = scheduler.Submit(IoPriority::kFaultBack, 0, [&] {
    return ++attempts <= 2 ? Status::IoError("transient glitch")
                           : Status::OK();
  });
  ASSERT_NE(ticket, nullptr);
  EXPECT_TRUE(ticket->Wait().ok());
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(metrics.GetCounter(metrics::kIoRetries)->Get(), 2);
  EXPECT_EQ(metrics.GetCounter(metrics::kIoRetryGaveUp)->Get(), 0);
}

TEST(IoSchedulerTest, RetryBudgetExhaustedSurfacesFailure) {
  MetricsRegistry metrics;
  IoScheduler::Options options = SchedulerOptions(&metrics, 1);
  options.retry_limit = 2;
  options.retry_backoff_micros = 50;
  IoScheduler scheduler(options);

  std::atomic<int> attempts{0};
  IoTicketRef ticket = scheduler.Submit(IoPriority::kFaultBack, 0, [&] {
    ++attempts;
    return Status::Unavailable("still glitching");
  });
  ASSERT_NE(ticket, nullptr);
  EXPECT_EQ(ticket->Wait().code(), StatusCode::kUnavailable);
  EXPECT_EQ(attempts.load(), 3) << "initial attempt + retry_limit retries";
  EXPECT_EQ(metrics.GetCounter(metrics::kIoRetries)->Get(), 2);
  EXPECT_EQ(metrics.GetCounter(metrics::kIoRetryGaveUp)->Get(), 1);
}

TEST(IoSchedulerTest, PermanentFailureIsNeverRetried) {
  MetricsRegistry metrics;
  IoScheduler::Options options = SchedulerOptions(&metrics, 1);
  options.retry_limit = 5;
  IoScheduler scheduler(options);

  std::atomic<int> attempts{0};
  IoTicketRef ticket = scheduler.Submit(IoPriority::kSpillWrite, 0, [&] {
    ++attempts;
    return Status::ResourceExhausted("disk full");
  });
  ASSERT_NE(ticket, nullptr);
  EXPECT_EQ(ticket->Wait().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(attempts.load(), 1);
  EXPECT_EQ(metrics.GetCounter(metrics::kIoRetries)->Get(), 0);
}

TEST(IoSchedulerTest, InjectedDispatchFaultIsRetried) {
  MetricsRegistry metrics;
  IoScheduler::Options options = SchedulerOptions(&metrics, 1);
  options.retry_limit = 2;
  options.retry_backoff_micros = 50;
  IoScheduler scheduler(options);

  // The injected dispatch failure fires on the first attempt only; the
  // retry must then run the (healthy) work body and succeed.
  SHARING_CHECK_OK(FaultRegistry::Global().Arm("io.dispatch.fail=once"));
  std::atomic<int> attempts{0};
  IoTicketRef ticket = scheduler.Submit(IoPriority::kFaultBack, 0, [&] {
    ++attempts;
    return Status::OK();
  });
  ASSERT_NE(ticket, nullptr);
  EXPECT_TRUE(ticket->Wait().ok());
  EXPECT_EQ(metrics.GetCounter(metrics::kIoRetries)->Get(), 1);
  FaultRegistry::Global().Disarm();
}

// ---------------------------------------------------------------------------
// Spill tier: durability before unpin, effective retention, window bound
// ---------------------------------------------------------------------------

struct AsyncSpillRig {
  explicit AsyncSpillRig(std::size_t budget, std::size_t window,
                         std::size_t threads = 1) {
    scheduler = std::make_shared<IoScheduler>(
        SchedulerOptions(&metrics, threads));
    SpBudgetGovernor::Options gopts;
    gopts.budget_pages = budget;
    gopts.scheduler = scheduler;
    gopts.spill_write_window = window;
    gopts.metrics = &metrics;
    governor = SpBudgetGovernor::Create(std::move(gopts));
    list = SharedPagesList::Create(&metrics, governor);
  }

  void AwaitSpillQuiesce() {
    for (int spin = 0; spin < 2000 && governor->SpillsInFlight() > 0;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(governor->SpillsInFlight(), 0u);
  }

  MetricsRegistry metrics;
  std::shared_ptr<IoScheduler> scheduler;
  std::shared_ptr<SpBudgetGovernor> governor;
  std::shared_ptr<SharedPagesList> list;
};

constexpr std::size_t kRowWidth = 32;
constexpr std::size_t kRowsPerPage = 64;

TEST(AsyncSpillTest, PagesStayResidentUntilSpillWriteIsDurable) {
  AsyncSpillRig rig(/*budget=*/2, /*window=*/4);
  auto stalled = rig.list->AttachReader();  // pins everything at position 0
  ASSERT_NE(stalled, nullptr);

  // Park the worker: spill writes queue but cannot land.
  Gate gate;
  IoTicketRef blocker =
      rig.scheduler->Submit(IoPriority::kSpillWrite, 0, [&] {
        gate.Await();
        return Status::OK();
      });
  ASSERT_NE(blocker, nullptr);

  constexpr std::size_t kPages = 6;
  for (std::size_t i = 0; i < kPages; ++i) {
    ASSERT_GT(rig.list->Append(MakePatternPage(
                  kRowWidth, kRowsPerPage, static_cast<uint8_t>(i))),
              0u);
  }

  // Durability-before-unpin: with every write stuck in the queue, not
  // one page has left memory — and they are all still readable.
  EXPECT_EQ(rig.list->InMemoryPages(), kPages);
  EXPECT_EQ(rig.metrics.GetCounter(metrics::kSpPagesSpilled)->Get(), 0);
  EXPECT_EQ(rig.metrics.GetGauge(metrics::kSpPagesRetained)->Get(),
            static_cast<int64_t>(kPages));
  // Effective accounting: the 4 in-flight victims (window) are already
  // committed to leaving memory, so the governor reports no excess and
  // nets them out of the effective retention.
  EXPECT_EQ(rig.governor->SpillsInFlight(), 4u);
  EXPECT_EQ(rig.governor->InMemoryPages(), kPages);
  EXPECT_EQ(rig.governor->EffectiveInMemoryPages(), kPages - 4);
  EXPECT_EQ(rig.governor->ExcessPages(), 0u);
  EXPECT_TRUE(rig.governor->SpillWindowFull());

  // Release the worker: the queued writes land, installs release the
  // victims, and the budget converges with no further Append (the
  // completion re-kick), leaving exactly `budget` pages resident.
  gate.Open();
  ASSERT_TRUE(blocker->Wait().ok());
  rig.AwaitSpillQuiesce();
  for (int spin = 0; spin < 2000 && rig.list->InMemoryPages() > 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rig.list->InMemoryPages(), 2u);
  EXPECT_EQ(rig.metrics.GetCounter(metrics::kSpPagesSpilled)->Get(),
            static_cast<int64_t>(kPages - 2));

  // The stalled reader drains bit-exactly: resident pages directly,
  // spilled ones via scheduler fault-back (+ sequential readahead).
  rig.list->Close(Status::OK());
  for (std::size_t i = 0; i < kPages; ++i) {
    PageRef page = stalled->Next();
    ASSERT_NE(page, nullptr) << "page " << i;
    PageRef want = MakePatternPage(kRowWidth, kRowsPerPage,
                                   static_cast<uint8_t>(i));
    ASSERT_EQ(page->row_count(), want->row_count());
    EXPECT_EQ(0, std::memcmp(page->RowAt(0), want->RowAt(0),
                             want->data_bytes()))
        << "page " << i << " not bit-exact";
  }
  EXPECT_EQ(stalled->Next(), nullptr);
  EXPECT_TRUE(stalled->FinalStatus().ok());
  EXPECT_EQ(rig.metrics.GetCounter(metrics::kSpUnspillReads)->Get(),
            static_cast<int64_t>(kPages - 2));
  EXPECT_GT(rig.metrics.GetCounter(metrics::kIoReadsIssued)->Get(), 0)
      << "fault-backs must go through the scheduler";
}

TEST(AsyncSpillTest, SpillWriteWindowBoundsInFlightWrites) {
  AsyncSpillRig rig(/*budget=*/1, /*window=*/1);
  auto stalled = rig.list->AttachReader();
  ASSERT_NE(stalled, nullptr);

  Gate gate;
  IoTicketRef blocker =
      rig.scheduler->Submit(IoPriority::kSpillWrite, 0, [&] {
        gate.Await();
        return Status::OK();
      });
  ASSERT_NE(blocker, nullptr);

  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_GT(rig.list->Append(MakePatternPage(
                  kRowWidth, kRowsPerPage, static_cast<uint8_t>(i))),
              0u);
    EXPECT_LE(rig.governor->SpillsInFlight(), 1u)
        << "the window must cap queued spill writes";
  }
  gate.Open();
  ASSERT_TRUE(blocker->Wait().ok());
  // One-at-a-time completion re-kicks still converge to the budget.
  for (int spin = 0; spin < 2000 && rig.list->InMemoryPages() > 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rig.list->InMemoryPages(), 1u);

  rig.list->Close(Status::OK());
  std::size_t drained = 0;
  while (stalled->Next() != nullptr) ++drained;
  EXPECT_EQ(drained, 8u);
  EXPECT_TRUE(stalled->FinalStatus().ok());
}

// ---------------------------------------------------------------------------
// Circular scans under prefetch (attach/detach/cancel stress,
// slow-consumer backpressure)
// ---------------------------------------------------------------------------

TEST(CircularScanPrefetchTest, PrefetchedScanDeliversEveryPageOnce) {
  auto db = MakeTestDatabase();
  Table* table = MakeSimpleTable(db.get(), "t", 20000);
  // Cold cache: readahead skips already-resident pages, so the scan must
  // start from disk for prefetch jobs to be observable.
  ASSERT_TRUE(db->buffer_pool()->EvictAll().ok());
  MetricsRegistry metrics;
  auto scheduler =
      std::make_shared<IoScheduler>(SchedulerOptions(&metrics, 2));
  CircularScanGroup group(table, 4, &metrics, scheduler, 4);

  constexpr int kScanners = 3;
  std::vector<std::thread> threads;
  std::atomic<int> total_pages{0};
  for (int s = 0; s < kScanners; ++s) {
    threads.emplace_back([&] {
      auto ticket = group.Attach();
      int n = 0;
      while (ticket->Next()) ++n;
      EXPECT_TRUE(ticket->FinalStatus().ok());
      total_pages.fetch_add(n);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total_pages.load(),
            kScanners * static_cast<int>(table->num_pages()));
  EXPECT_GT(metrics.GetCounter(metrics::kIoReadsIssued)->Get(), 0)
      << "the producer must issue scheduler readahead";
}

TEST(CircularScanPrefetchTest, ConcurrentAttachDetachCancelStress) {
  auto db = MakeTestDatabase();
  Table* table = MakeSimpleTable(db.get(), "t", 30000);
  MetricsRegistry metrics;
  auto scheduler =
      std::make_shared<IoScheduler>(SchedulerOptions(&metrics, 2));

  // Several rounds of group construction/destruction with scanners
  // attaching, half-reading, cancelling, and destroying tickets while
  // readahead is in flight. Outstanding prefetch jobs must never touch
  // freed group state (they capture only the buffer pool).
  for (int round = 0; round < 3; ++round) {
    CircularScanGroup group(table, 2, &metrics, scheduler, 8);
    constexpr int kThreads = 6;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int iter = 0; iter < 4; ++iter) {
          auto ticket = group.Attach();
          const int mode = (t + iter) % 3;
          if (mode == 0) {
            // Full cycle.
            std::size_t n = 0;
            while (ticket->Next()) ++n;
            EXPECT_EQ(n, table->num_pages());
          } else if (mode == 1) {
            // Partial read, then explicit cancel.
            for (int i = 0; i < 3 && ticket->Next(); ++i) {
            }
            ticket->Cancel();
            EXPECT_EQ(ticket->Next(), nullptr);
          } else {
            // Partial read, then implicit detach via destruction.
            ticket->Next();
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    // Closed and finished tickets leave the cursor at once.
    for (int spin = 0; spin < 1000 && group.ActiveConsumers() > 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(group.ActiveConsumers(), 0u);
  }
}

TEST(CircularScanPrefetchTest, SlowConsumerBackpressureBoundsQueueDepth) {
  auto db = MakeTestDatabase();
  Table* table = MakeSimpleTable(db.get(), "t", 30000);
  ASSERT_GT(table->num_pages(), 16u);
  MetricsRegistry metrics;
  auto scheduler =
      std::make_shared<IoScheduler>(SchedulerOptions(&metrics, 2));
  constexpr std::size_t kQueueDepth = 2;
  CircularScanGroup group(table, kQueueDepth, &metrics, scheduler, 8);

  auto slow = group.Attach();
  constexpr std::size_t kConsumed = 5;
  for (std::size_t i = 0; i < kConsumed; ++i) {
    ASSERT_NE(slow->Next(), nullptr);
  }
  // Give the scan every chance to run ahead; backpressure must stop it
  // at consumed + queue depth + the one page a claimer may hold in
  // Deliver.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(metrics.GetCounter(metrics::kScanPagesRead)->Get(),
            static_cast<int64_t>(kConsumed + kQueueDepth + 1))
      << "prefetch must not defeat consumer backpressure";

  std::size_t n = kConsumed;
  while (slow->Next()) ++n;
  EXPECT_EQ(n, table->num_pages());
  EXPECT_TRUE(slow->FinalStatus().ok());
}

}  // namespace
}  // namespace sharing
