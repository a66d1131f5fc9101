// Cancellation races, written for the TSan suite: Cancel arriving while
// a sharing host is mid-append, while satellites are parked on the
// shared pages list, and while an IoScheduler job is in flight. The
// invariant in every case: each query/reader/ticket reaches a definite
// terminal state (correct result, Aborted, or the job's own status) —
// no hang, no torn state, no silently short result.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "exec/reference_executor.h"
#include "io/io_scheduler.h"
#include "qpipe/engine.h"
#include "qpipe/shared_pages_list.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::MakeSimpleTable;
using testing::MakeTestDatabase;

PageRef MakePage(uint8_t seed) {
  constexpr std::size_t kRowWidth = 32;
  constexpr std::size_t kRows = 16;
  auto page = std::make_shared<RowPage>(kRowWidth, kRowWidth * kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    uint8_t* slot = page->AppendSlot();
    EXPECT_NE(slot, nullptr);
    for (std::size_t b = 0; b < kRowWidth; ++b) {
      slot[b] = static_cast<uint8_t>(seed + r + b);
    }
  }
  return page;
}

// ---------------------------------------------------------------------------
// Cancel vs a sharing host that is mid-append
// ---------------------------------------------------------------------------

TEST(CancelRaceTest, CancelHostWhileSatellitesConsume) {
  auto db = MakeTestDatabase();
  Table* table = MakeSimpleTable(db.get(), "t", 20000);
  auto plan = [&]() -> PlanNodeRef {
    auto scan = std::make_shared<ScanNode>(
        "t", table->schema(), TruePredicate(),
        std::vector<std::size_t>{0, 1});
    return std::make_shared<AggregateNode>(
        scan, std::vector<std::size_t>{0},
        std::vector<AggSpec>{AggSpec::Count("n")});
  };
  ReferenceExecutor ref(db->catalog());
  auto want = ref.Execute(*plan());
  ASSERT_TRUE(want.ok());
  const auto want_rows = want.value().CanonicalRows();

  QPipeOptions options{.sp_mode = SpMode::kPull};
  QPipeEngine engine(db->catalog(), options, db->metrics());

  constexpr int kRounds = 8;
  constexpr int kQueries = 4;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<QueryHandle> handles;
    for (int q = 0; q < kQueries; ++q) handles.push_back(engine.Submit(plan()));

    std::vector<std::thread> collectors;
    std::atomic<int> bad{0};
    for (int q = 0; q < kQueries; ++q) {
      collectors.emplace_back([&, q] {
        auto result = handles[q].Collect();
        if (result.ok()) {
          if (result.value().CanonicalRows() != want_rows) bad.fetch_add(1);
        } else if (result.status().code() != StatusCode::kAborted &&
                   result.status().code() != StatusCode::kIoError) {
          bad.fetch_add(1);
        }
      });
    }
    // Cancel the first submission (the likely host) at a sliding offset
    // so the cancel lands before, during, and after production across
    // rounds.
    std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
    handles[0].Cancel();
    for (auto& t : collectors) t.join();
    EXPECT_EQ(bad.load(), 0) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Cancel vs satellites parked on the shared pages list
// ---------------------------------------------------------------------------

TEST(CancelRaceTest, CancelParkedReadersWhileProducerAppends) {
  constexpr int kReaders = 4;
  constexpr int kPages = 200;
  for (int round = 0; round < 4; ++round) {
    MetricsRegistry metrics;
    auto list = SharedPagesList::Create(&metrics);

    std::vector<std::shared_ptr<SplReader>> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.push_back(list->AttachReader());
      ASSERT_NE(readers.back(), nullptr);
    }

    std::vector<std::size_t> consumed(kReaders, 0);
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        // Readers outpace the producer, so they spend most of the run
        // parked; the front two get cancelled out from under their park.
        while (readers[r]->Next() != nullptr) ++consumed[r];
      });
    }

    std::thread producer([&] {
      for (int p = 0; p < kPages; ++p) {
        list->Append(MakePage(static_cast<uint8_t>(p)));
        if (p % 16 == 0) std::this_thread::yield();
      }
      list->Close(Status::OK());
    });

    // Cancel two parked readers while appends and wakeups are in flight.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    readers[0]->Cancel();
    readers[1]->Cancel();

    producer.join();
    for (auto& t : threads) t.join();

    // Cancelled readers stopped early with a definite status; survivors
    // saw the complete stream.
    for (int r = 2; r < kReaders; ++r) {
      EXPECT_EQ(consumed[r], static_cast<std::size_t>(kPages))
          << "reader " << r << " round " << round;
      EXPECT_TRUE(readers[r]->FinalStatus().ok());
    }
    EXPECT_LE(consumed[0], static_cast<std::size_t>(kPages));
    EXPECT_LE(consumed[1], static_cast<std::size_t>(kPages));
  }
}

// ---------------------------------------------------------------------------
// Cancel vs an in-flight IoScheduler ticket
// ---------------------------------------------------------------------------

TEST(CancelRaceTest, CancelRacesInFlightIoTickets) {
  MetricsRegistry metrics;
  IoScheduler::Options options;
  options.threads = 2;
  options.metrics = &metrics;
  IoScheduler scheduler(options);

  constexpr int kJobs = 200;
  for (int i = 0; i < kJobs; ++i) {
    std::atomic<bool> ran{false};
    std::atomic<bool> skipped{false};
    IoTicketRef ticket = scheduler.Submit(
        IoPriority::kFaultBack, 0,
        [&] {
          ran.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(i % 7));
          return Status::OK();
        },
        /*on_skip=*/[&] { skipped.store(true); });
    ASSERT_NE(ticket, nullptr);

    // Race the cancel against the worker's claim; every interleaving
    // must resolve to exactly one of {ran, skipped}.
    if (i % 3 != 0) std::this_thread::sleep_for(std::chrono::microseconds(i % 5));
    const bool cancelled = ticket->TryCancel();
    const Status st = ticket->Wait();
    if (cancelled) {
      EXPECT_EQ(st.code(), StatusCode::kAborted);
      EXPECT_FALSE(ran.load());
      EXPECT_TRUE(skipped.load());
    } else {
      EXPECT_TRUE(st.ok());
      EXPECT_TRUE(ran.load());
      EXPECT_FALSE(skipped.load());
    }
  }
}

}  // namespace
}  // namespace sharing
