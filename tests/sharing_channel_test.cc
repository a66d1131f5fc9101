// Tests for the unified SharingChannel transport: push/pull equivalence
// through one interface, the widened pull attach window, reference-counted
// SPL page reclamation (bounded memory), and producer unblocking when all
// readers cancel.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "qpipe/batch_pipe.h"
#include "qpipe/sharing_channel.h"

namespace sharing {
namespace {

PageRef MakePage(int64_t tag, std::size_t rows = 4) {
  auto page = std::make_shared<RowPage>(sizeof(int64_t), 64);
  for (std::size_t i = 0; i < rows; ++i) {
    int64_t v = tag * 100 + static_cast<int64_t>(i);
    page->AppendRow(reinterpret_cast<const uint8_t*>(&v));
  }
  return page;
}

int64_t FirstValue(const PageRef& page) {
  int64_t v;
  std::memcpy(&v, page->RowAt(0), sizeof(v));
  return v;
}

class SharingChannelTest : public ::testing::TestWithParam<SpMode> {
 protected:
  SharingChannelRef MakeChannel(
      std::function<void(const SharingChannel::Stats&)> on_close = {}) {
    SharingChannelOptions options;
    options.metrics = &metrics_;
    options.fifo_capacity = 16;
    options.on_close = std::move(on_close);
    return MakeSharingChannel(GetParam(), std::move(options));
  }

  MetricsRegistry metrics_;
};

// Both transports must deliver the identical ordered stream to every
// reader attached before production starts.
TEST_P(SharingChannelTest, AllReadersSeeIdenticalStream) {
  auto channel = MakeChannel();
  constexpr int kReaders = 3;
  constexpr int kPages = 200;

  std::vector<PageSourceRef> readers;
  for (int r = 0; r < kReaders; ++r) {
    auto reader = channel->AttachReader();
    ASSERT_NE(reader, nullptr);
    readers.push_back(std::move(reader));
  }

  std::thread producer([&] {
    for (int i = 0; i < kPages; ++i) channel->Put(MakePage(i, 1));
    channel->Close(Status::OK());
  });

  std::vector<std::thread> consumers;
  std::atomic<int> failures{0};
  for (int r = 0; r < kReaders; ++r) {
    consumers.emplace_back([&, r] {
      int64_t expect = 0;
      while (PageRef page = readers[r]->Next()) {
        if (FirstValue(page) != expect * 100) failures.fetch_add(1);
        ++expect;
      }
      if (expect != kPages) failures.fetch_add(1);
      if (!readers[r]->FinalStatus().ok()) failures.fetch_add(1);
    });
  }
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(SharingChannelTest, CloseWithErrorReachesEveryReader) {
  auto channel = MakeChannel();
  auto r1 = channel->AttachReader();
  auto r2 = channel->AttachReader();
  channel->Put(MakePage(1));
  channel->Close(Status::Aborted("host failed"));
  while (r1->Next()) {
  }
  while (r2->Next()) {
  }
  EXPECT_EQ(r1->FinalStatus().code(), StatusCode::kAborted);
  EXPECT_EQ(r2->FinalStatus().code(), StatusCode::kAborted);
}

TEST_P(SharingChannelTest, AllReadersCancellingStopsProducer) {
  SharingChannelOptions options;
  options.metrics = &metrics_;
  options.fifo_capacity = 1;  // tight, so a push producer hits backpressure
  auto channel = MakeSharingChannel(GetParam(), std::move(options));

  auto reader = channel->AttachReader();
  ASSERT_NE(reader, nullptr);

  std::atomic<bool> producer_stopped{false};
  std::thread producer([&] {
    bool alive = true;
    for (int i = 0; i < 100000 && alive; ++i) {
      alive = channel->Put(MakePage(i, 1));
    }
    producer_stopped.store(true);
    channel->Close(Status::OK());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  reader->CancelConsumer();
  producer.join();
  EXPECT_TRUE(producer_stopped.load());
}

TEST_P(SharingChannelTest, OnCloseReportsSessionStats) {
  SharingChannel::Stats closing;
  std::atomic<int> close_calls{0};
  auto channel = MakeChannel([&](const SharingChannel::Stats& stats) {
    closing = stats;
    close_calls.fetch_add(1);
  });
  auto host = channel->AttachReader();
  auto satellite = channel->AttachReader();
  channel->Put(MakePage(1));
  channel->Put(MakePage(2));
  channel->Close(Status::OK());
  channel->Close(Status::OK());  // idempotent: the hook must fire once
  while (host->Next()) {
  }
  while (satellite->Next()) {
  }
  EXPECT_EQ(close_calls.load(), 1);
  EXPECT_EQ(closing.readers_attached, 2u);
  EXPECT_EQ(closing.pages_produced, 2u);
  EXPECT_FALSE(closing.attach_window_open);
}

// Batched producer + batched consumers must deliver the identical
// ordered stream — the amortized hot path cannot reorder, drop, or
// duplicate (exercises SharedPagesList::AppendBatch + SplReader::
// NextBatch on pull, FifoBuffer::PutBatch/NextBatch on push).
TEST_P(SharingChannelTest, BatchedPutAndBatchedReadPreserveTheStream) {
  auto channel = MakeChannel();
  constexpr int kReaders = 3;
  constexpr int kPages = 200;
  constexpr std::size_t kBatch = 8;

  std::vector<PageSourceRef> readers;
  for (int r = 0; r < kReaders; ++r) {
    auto reader = channel->AttachReader();
    ASSERT_NE(reader, nullptr);
    readers.push_back(std::move(reader));
  }

  std::thread producer([&] {
    std::vector<PageRef> batch;
    for (int i = 0; i < kPages; ++i) {
      batch.push_back(MakePage(i, 1));
      if (batch.size() == kBatch) {
        ASSERT_TRUE(channel->PutBatch(std::move(batch)));
        batch = {};
      }
    }
    if (!batch.empty()) ASSERT_TRUE(channel->PutBatch(std::move(batch)));
    channel->Close(Status::OK());
  });

  std::vector<std::thread> consumers;
  std::atomic<int> failures{0};
  for (int r = 0; r < kReaders; ++r) {
    consumers.emplace_back([&, r] {
      int64_t expect = 0;
      std::vector<PageRef> got;
      for (;;) {
        got.clear();
        // Deliberately a different batch size than the producer's: the
        // reader's view must be independent of publication batching.
        std::size_t n = readers[r]->NextBatch(5, &got);
        if (n == 0) break;
        if (n != got.size()) failures.fetch_add(1);
        for (const PageRef& page : got) {
          if (FirstValue(page) != expect * 100) failures.fetch_add(1);
          ++expect;
        }
      }
      if (expect != kPages) failures.fetch_add(1);
      if (!readers[r]->FinalStatus().ok()) failures.fetch_add(1);
      if (readers[r]->PagesDelivered() != kPages) failures.fetch_add(1);
    });
  }
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(PushAndPull, SharingChannelTest,
                         ::testing::Values(SpMode::kPush, SpMode::kPull),
                         [](const auto& info) {
                           return std::string(SpModeToString(info.param));
                         });

// ---------------------------------------------------------------------------
// Model-specific window semantics
// ---------------------------------------------------------------------------

TEST(PushChannelTest, AttachWindowClosesAtFirstEmission) {
  MetricsRegistry metrics;
  SharingChannelOptions options;
  options.metrics = &metrics;
  auto channel = MakeSharingChannel(SpMode::kPush, std::move(options));
  auto host = channel->AttachReader();
  ASSERT_NE(host, nullptr);
  channel->Put(MakePage(1));
  EXPECT_EQ(channel->AttachReader(), nullptr)
      << "a late push satellite would miss the already-emitted page";
  channel->Close(Status::OK());
}

TEST(PushChannelTest, SatellitesAreFedCopies) {
  MetricsRegistry metrics;
  SharingChannelOptions options;
  options.metrics = &metrics;
  auto channel = MakeSharingChannel(SpMode::kPush, std::move(options));
  auto host = channel->AttachReader();
  auto satellite = channel->AttachReader();
  PageRef original = MakePage(7);
  const RowPage* raw = original.get();
  channel->Put(std::move(original));
  channel->Close(Status::OK());
  EXPECT_EQ(host->Next().get(), raw);       // host reads the original
  EXPECT_NE(satellite->Next().get(), raw);  // satellite reads a deep copy
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesCopied)->Get(), 1);
}

TEST(PullChannelTest, MidProductionAttachSeesAllPages) {
  MetricsRegistry metrics;
  SharingChannelOptions options;
  options.metrics = &metrics;
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
  auto host = channel->AttachReader();
  channel->Put(MakePage(1));
  channel->Put(MakePage(2));
  // The widened pull window: attach mid-production, observe full history.
  auto late = channel->AttachReader();
  ASSERT_NE(late, nullptr);
  channel->Put(MakePage(3));
  channel->Close(Status::OK());

  int host_count = 0, late_count = 0;
  int64_t first = -1;
  while (PageRef page = host->Next()) ++host_count;
  while (PageRef page = late->Next()) {
    if (first < 0) first = FirstValue(page);
    ++late_count;
  }
  EXPECT_EQ(host_count, 3);
  EXPECT_EQ(late_count, 3);
  EXPECT_EQ(first, 100);  // history starts at the first page
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesCopied)->Get(), 0)
      << "pull-model SP must not copy pages";
}

TEST(PullChannelTest, CloseSealsAttachWindow) {
  MetricsRegistry metrics;
  SharingChannelOptions options;
  options.metrics = &metrics;
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
  auto host = channel->AttachReader();
  channel->Put(MakePage(1));
  channel->Close(Status::OK());
  EXPECT_EQ(channel->AttachReader(), nullptr)
      << "a closed session is deregistered; late queries must re-execute";
}

TEST(PullChannelTest, FinishedSessionStaysOpenUntilReadToTheEnd) {
  MetricsRegistry metrics;
  SharingChannelOptions options;
  options.metrics = &metrics;
  std::atomic<int> close_calls{0};
  SharingChannel::Stats closing;
  options.on_close = [&](const SharingChannel::Stats& stats) {
    closing = stats;
    close_calls.fetch_add(1);
  };
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
  auto host = channel->AttachReader();
  channel->Put(MakePage(1));
  channel->Put(MakePage(2));
  channel->Finish(Status::OK());

  // The host finished before its twin arrived; nobody has read the end.
  auto late = channel->AttachReader();
  ASSERT_NE(late, nullptr) << "a finished session is open until read";
  EXPECT_EQ(close_calls.load(), 0);
  int late_count = 0;
  while (late->Next()) ++late_count;
  EXPECT_EQ(late_count, 2) << "the late twin reads the whole result";

  // A reader saw end-of-stream: the window sealed before it returned.
  EXPECT_EQ(channel->AttachReader(), nullptr);
  EXPECT_EQ(close_calls.load(), 1);
  EXPECT_EQ(closing.readers_attached, 2u);
  EXPECT_FALSE(closing.attach_window_open);
  int host_count = 0;
  while (host->Next()) ++host_count;
  EXPECT_EQ(host_count, 2);
  EXPECT_EQ(close_calls.load(), 1);
}

TEST(PullChannelTest, FinishedSessionSealsWhenEveryReaderLeaves) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  SharingChannelOptions options;
  options.metrics = &metrics;
  std::atomic<int> close_calls{0};
  options.on_close = [&](const SharingChannel::Stats&) {
    close_calls.fetch_add(1);
  };
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
  auto host = channel->AttachReader();
  channel->Put(MakePage(1));
  channel->Finish(Status::OK());
  EXPECT_EQ(close_calls.load(), 0);
  host->CancelConsumer();
  EXPECT_EQ(close_calls.load(), 1);
  EXPECT_EQ(channel->AttachReader(), nullptr);
  EXPECT_EQ(retained->Get(), 0) << "an abandoned session keeps nothing";
}

// ---------------------------------------------------------------------------
// Bounded memory: reference-counted SPL reclamation
// ---------------------------------------------------------------------------

TEST(PullChannelTest, PagesReclaimedAfterAllReadersPass) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  SharingChannelOptions options;
  options.metrics = &metrics;
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));

  constexpr int kPages = 500;
  auto fast = channel->AttachReader();
  auto slow = channel->AttachReader();
  for (int i = 0; i < kPages; ++i) channel->Put(MakePage(i, 1));
  EXPECT_EQ(retained->Get(), kPages)
      << "while the attach window is open every page must stay retained";
  channel->Close(Status::OK());  // seals the window, arming reclamation

  // The fast reader alone cannot free anything: the slow reader still
  // needs the history.
  while (fast->Next()) {
  }
  EXPECT_EQ(retained->Get(), kPages);

  // As the slow reader advances, pages behind it are freed incrementally.
  for (int i = 0; i < kPages / 2; ++i) slow->Next();
  EXPECT_LE(retained->Get(), kPages - kPages / 2 + 1);

  while (slow->Next()) {
  }
  EXPECT_EQ(retained->Get(), 0)
      << "pages_retained must return to zero once all readers drain";
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesReclaimed)->Get(), kPages);
  EXPECT_EQ(retained->HighWaterMark(), kPages);
}

TEST(PullChannelTest, ReaderCancelReleasesItsHold) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  SharingChannelOptions options;
  options.metrics = &metrics;
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));

  auto done = channel->AttachReader();
  auto stuck = channel->AttachReader();
  for (int i = 0; i < 100; ++i) channel->Put(MakePage(i, 1));
  channel->Close(Status::OK());
  while (done->Next()) {
  }
  EXPECT_EQ(retained->Get(), 100) << "the stuck reader pins the history";
  stuck->CancelConsumer();
  EXPECT_EQ(retained->Get(), 0)
      << "cancelling the last laggard frees everything";
}

TEST(PullChannelTest, ConcurrentDrainReclaimsEverything) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  SharingChannelOptions options;
  options.metrics = &metrics;
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));

  constexpr int kReaders = 6;
  constexpr int kPages = 2000;
  std::vector<PageSourceRef> readers;
  for (int r = 0; r < kReaders; ++r) readers.push_back(channel->AttachReader());

  std::thread producer([&] {
    for (int i = 0; i < kPages; ++i) channel->Put(MakePage(i, 1));
    channel->Close(Status::OK());
  });
  std::vector<std::thread> consumers;
  std::atomic<int> failures{0};
  for (int r = 0; r < kReaders; ++r) {
    consumers.emplace_back([&, r] {
      int count = 0;
      while (readers[r]->Next()) ++count;
      if (count != kPages) failures.fetch_add(1);
    });
  }
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesReclaimed)->Get(), kPages);
}

// ---------------------------------------------------------------------------
// Spill tier: the SpBudgetGovernor bounds in-memory retention; overflow
// migrates to the governor's temp store and faults back bit-exactly.
// ---------------------------------------------------------------------------

std::shared_ptr<SpBudgetGovernor> MakeGovernor(MetricsRegistry* metrics,
                                               std::size_t budget) {
  SpBudgetGovernor::Options gopts;
  gopts.budget_pages = budget;
  gopts.metrics = metrics;
  return SpBudgetGovernor::Create(std::move(gopts));
}

SharingChannelRef MakePullChannel(MetricsRegistry* metrics,
                                  std::shared_ptr<SpBudgetGovernor> governor) {
  SharingChannelOptions options;
  options.metrics = metrics;
  options.governor = std::move(governor);
  return MakeSharingChannel(SpMode::kPull, std::move(options));
}

void ExpectPageBitExact(const PageRef& page, int64_t tag, std::size_t rows) {
  ASSERT_NE(page, nullptr);
  PageRef want = MakePage(tag, rows);
  ASSERT_EQ(page->row_width(), want->row_width());
  ASSERT_EQ(page->row_count(), want->row_count());
  EXPECT_EQ(page->capacity(), want->capacity())
      << "fault-back must reconstruct the page exactly, capacity included";
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(0,
              std::memcmp(page->RowAt(r), want->RowAt(r), page->row_width()))
        << "row " << r << " of page " << tag;
  }
}

TEST(SpillChannelTest, SlowReaderSpillsAndFaultsBackBitExact) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  Gauge* spill_bytes = metrics.GetGauge(metrics::kSpSpillBytes);
  constexpr std::size_t kBudget = 8;
  constexpr int kPages = 100;
  auto governor = MakeGovernor(&metrics, kBudget);
  auto channel = MakePullChannel(&metrics, governor);

  auto host = channel->AttachReader();
  auto slow = channel->AttachReader();

  // The host keeps pace with production; the slow satellite is stalled at
  // page 0 and pins the whole history — exactly the case the budget
  // bounds.
  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(channel->Put(MakePage(i)));
    ExpectPageBitExact(host->Next(), i, 4);
    ASSERT_LE(retained->Get(), static_cast<int64_t>(kBudget))
        << "in-memory retention exceeded the budget at page " << i;
  }
  channel->Close(Status::OK());
  EXPECT_EQ(host->Next(), nullptr);

  EXPECT_GT(metrics.GetCounter(metrics::kSpPagesSpilled)->Get(),
            static_cast<int64_t>(kPages - 2 * kBudget))
      << "most of the stalled window must have been migrated to disk";
  EXPECT_GT(spill_bytes->Get(), 0);

  // The stalled reader now drains: spilled pages fault back bit-exact.
  for (int i = 0; i < kPages; ++i) {
    PageRef page = slow->Next();
    ExpectPageBitExact(page, i, 4);
  }
  EXPECT_EQ(slow->Next(), nullptr);
  EXPECT_TRUE(slow->FinalStatus().ok());
  EXPECT_GT(metrics.GetCounter(metrics::kSpUnspillReads)->Get(), 0);

  // Reclamation-after-drain: both tiers return to zero.
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(spill_bytes->Get(), 0);
  EXPECT_EQ(governor->InMemoryPages(), 0u);
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesReclaimed)->Get(), kPages);
}

TEST(SpillChannelTest, BudgetHoldsAcrossConcurrentSessions) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  Gauge* spill_bytes = metrics.GetGauge(metrics::kSpSpillBytes);
  constexpr std::size_t kBudget = 8;
  constexpr int kPages = 50;
  // One governor, two concurrent sharing sessions: the budget is global,
  // not per channel.
  auto governor = MakeGovernor(&metrics, kBudget);
  auto a = MakePullChannel(&metrics, governor);
  auto b = MakePullChannel(&metrics, governor);

  auto host_a = a->AttachReader();
  auto host_b = b->AttachReader();
  auto slow_a = a->AttachReader();
  auto slow_b = b->AttachReader();

  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(a->Put(MakePage(i)));
    ASSERT_TRUE(b->Put(MakePage(1000 + i)));
    ExpectPageBitExact(host_a->Next(), i, 4);
    ExpectPageBitExact(host_b->Next(), 1000 + i, 4);
    ASSERT_LE(retained->Get(), static_cast<int64_t>(kBudget))
        << "combined in-memory retention exceeded the budget at page " << i;
  }
  a->Close(Status::OK());
  b->Close(Status::OK());

  for (int i = 0; i < kPages; ++i) {
    ExpectPageBitExact(slow_a->Next(), i, 4);
    ExpectPageBitExact(slow_b->Next(), 1000 + i, 4);
  }
  EXPECT_EQ(slow_a->Next(), nullptr);
  EXPECT_EQ(slow_b->Next(), nullptr);
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(spill_bytes->Get(), 0);
  EXPECT_EQ(governor->InMemoryPages(), 0u);
}

TEST(SpillChannelTest, CancelledReaderFreesSpilledPagesUnread) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  Gauge* spill_bytes = metrics.GetGauge(metrics::kSpSpillBytes);
  auto governor = MakeGovernor(&metrics, /*budget=*/4);
  auto channel = MakePullChannel(&metrics, governor);

  auto host = channel->AttachReader();
  auto stuck = channel->AttachReader();
  constexpr int kPages = 64;
  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(channel->Put(MakePage(i)));
    ASSERT_NE(host->Next(), nullptr);
  }
  channel->Close(Status::OK());
  EXPECT_EQ(host->Next(), nullptr);
  EXPECT_GT(spill_bytes->Get(), 0) << "the stuck reader forced a spill";

  // The stuck reader walks away without ever reading: its spilled chains
  // must be deleted, not faulted back.
  stuck->CancelConsumer();
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(spill_bytes->Get(), 0);
  EXPECT_EQ(metrics.GetCounter(metrics::kSpUnspillReads)->Get(), 0)
      << "reclaimed spill chains are freed unread";
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesReclaimed)->Get(), kPages);
}

TEST(SpillChannelTest, RebalanceShedsIdleChannelBeforeActiveUnreadTail) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  constexpr std::size_t kBudget = 8;
  auto governor = MakeGovernor(&metrics, kBudget);
  auto idle = MakePullChannel(&metrics, governor);
  auto active = MakePullChannel(&metrics, governor);

  // Idle session: its host drained everything, but the open attach
  // window keeps the history resident — filling the budget exactly.
  auto idle_host = idle->AttachReader();
  for (int i = 0; i < static_cast<int>(kBudget); ++i) {
    ASSERT_TRUE(idle->Put(MakePage(i)));
    ASSERT_NE(idle_host->Next(), nullptr);
  }
  EXPECT_EQ(retained->Get(), static_cast<int64_t>(kBudget));
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesSpilled)->Get(), 0);

  // Active session: produce an unread tail. The governor must shed the
  // idle channel's drained history, not make the active channel
  // spill-and-refault the pages it is about to serve.
  auto active_host = active->AttachReader();
  for (int i = 0; i < static_cast<int>(kBudget); ++i) {
    ASSERT_TRUE(active->Put(MakePage(100 + i)));
    ASSERT_LE(retained->Get(), static_cast<int64_t>(kBudget));
  }
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesSpilled)->Get(),
            static_cast<int64_t>(kBudget))
      << "exactly the idle channel's history must have spilled";
  active->Close(Status::OK());
  for (int i = 0; i < static_cast<int>(kBudget); ++i) {
    ExpectPageBitExact(active_host->Next(), 100 + i, 4);
  }
  EXPECT_EQ(active_host->Next(), nullptr);
  EXPECT_EQ(metrics.GetCounter(metrics::kSpUnspillReads)->Get(), 0)
      << "the active channel must serve its own production from RAM";

  // The idle session's spilled history still serves a late attacher.
  auto late = idle->AttachReader();
  ASSERT_NE(late, nullptr);
  idle->Close(Status::OK());
  for (int i = 0; i < static_cast<int>(kBudget); ++i) {
    ExpectPageBitExact(late->Next(), i, 4);
  }
  EXPECT_EQ(late->Next(), nullptr);
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(metrics.GetGauge(metrics::kSpSpillBytes)->Get(), 0);
}

TEST(SpillChannelTest, UnreadFallbackShedsIdleChannelFirst) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  constexpr std::size_t kBudget = 8;
  auto governor = MakeGovernor(&metrics, kBudget);
  auto idle = MakePullChannel(&metrics, governor);
  auto active = MakePullChannel(&metrics, governor);

  // Idle session: unread production exactly at the budget (submitted but
  // not yet collected — its reader arrives later).
  auto idle_reader = idle->AttachReader();
  for (int i = 0; i < static_cast<int>(kBudget); ++i) {
    ASSERT_TRUE(idle->Put(MakePage(i)));
  }
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesSpilled)->Get(), 0);

  // Active session: nothing is consumed anywhere, so the unread
  // fallback applies — it must shed the idle channel's pages (read
  // later) before the active channel's fresh ones (read next).
  auto active_host = active->AttachReader();
  for (int i = 0; i < static_cast<int>(kBudget); ++i) {
    ASSERT_TRUE(active->Put(MakePage(100 + i)));
    ASSERT_LE(retained->Get(), static_cast<int64_t>(kBudget));
  }
  active->Close(Status::OK());
  for (int i = 0; i < static_cast<int>(kBudget); ++i) {
    ExpectPageBitExact(active_host->Next(), 100 + i, 4);
  }
  EXPECT_EQ(active_host->Next(), nullptr);
  EXPECT_EQ(metrics.GetCounter(metrics::kSpUnspillReads)->Get(), 0)
      << "the active producer must not spill-and-refault its own pages";

  // The idle session's reader finally arrives and faults its history.
  idle->Close(Status::OK());
  for (int i = 0; i < static_cast<int>(kBudget); ++i) {
    ExpectPageBitExact(idle_reader->Next(), i, 4);
  }
  EXPECT_EQ(idle_reader->Next(), nullptr);
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(metrics.GetGauge(metrics::kSpSpillBytes)->Get(), 0);
}

TEST(SpillChannelTest, MidProductionAttachReadsSpilledHistory) {
  MetricsRegistry metrics;
  auto governor = MakeGovernor(&metrics, /*budget=*/4);
  auto channel = MakePullChannel(&metrics, governor);

  auto host = channel->AttachReader();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(channel->Put(MakePage(i)));
    ASSERT_NE(host->Next(), nullptr);
  }
  // The widened pull window survives the spill tier: a late attacher is
  // served the spilled history via fault-back.
  auto late = channel->AttachReader();
  ASSERT_NE(late, nullptr);
  for (int i = 32; i < 40; ++i) {
    ASSERT_TRUE(channel->Put(MakePage(i)));
    ASSERT_NE(host->Next(), nullptr);
  }
  channel->Close(Status::OK());
  for (int i = 0; i < 40; ++i) {
    ExpectPageBitExact(late->Next(), i, 4);
  }
  EXPECT_EQ(late->Next(), nullptr);
  EXPECT_GT(metrics.GetCounter(metrics::kSpUnspillReads)->Get(), 0);
}

TEST(SpillChannelTest, ConcurrentSpilledDrainIsBitExact) {
  MetricsRegistry metrics;
  Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
  Gauge* spill_bytes = metrics.GetGauge(metrics::kSpSpillBytes);
  constexpr std::size_t kBudget = 16;
  constexpr int kReaders = 4;
  constexpr int kPages = 400;
  auto governor = MakeGovernor(&metrics, kBudget);
  auto channel = MakePullChannel(&metrics, governor);

  std::vector<PageSourceRef> readers;
  for (int r = 0; r < kReaders; ++r) readers.push_back(channel->AttachReader());

  std::thread producer([&] {
    for (int i = 0; i < kPages; ++i) channel->Put(MakePage(i, 2));
    channel->Close(Status::OK());
  });
  std::vector<std::thread> consumers;
  std::atomic<int> failures{0};
  for (int r = 0; r < kReaders; ++r) {
    consumers.emplace_back([&, r] {
      int64_t expect = 0;
      while (PageRef page = readers[r]->Next()) {
        if (page->row_count() != 2 || FirstValue(page) != expect * 100) {
          failures.fetch_add(1);
        }
        ++expect;
        if (r == 0) {
          // One deliberately slow reader so production outruns
          // consumption and the budget forces spills.
          std::this_thread::yield();
        }
      }
      if (expect != kPages) failures.fetch_add(1);
      if (!readers[r]->FinalStatus().ok()) failures.fetch_add(1);
    });
  }
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(spill_bytes->Get(), 0);
  EXPECT_EQ(governor->InMemoryPages(), 0u);
}

// ---------------------------------------------------------------------------
// SPL hot-path concurrency: the lock-free publication protocol, per-reader
// parking, and batched cursors under adversarial interleavings. These are
// the suites ci/verify.sh runs under ThreadSanitizer.
// ---------------------------------------------------------------------------

// Attach mid-production, drain under spill pressure, cancel mid-batch —
// all at once, repeatedly. Every surviving reader must observe a correct
// prefix-free stream (the full result), cancelled readers a prefix, and
// both memory tiers must return to zero.
TEST(SplContentionTest, ConcurrentAttachDrainCancelStress) {
  constexpr int kIterations = 8;
  constexpr int kPages = 400;
  constexpr std::size_t kBudget = 16;
  for (int iter = 0; iter < kIterations; ++iter) {
    MetricsRegistry metrics;
    Gauge* retained = metrics.GetGauge(metrics::kSpPagesRetained);
    Gauge* spill_bytes = metrics.GetGauge(metrics::kSpSpillBytes);
    auto governor = MakeGovernor(&metrics, kBudget);
    auto channel = MakePullChannel(&metrics, governor);

    std::atomic<int> failures{0};
    std::atomic<bool> window_open{true};

    // A batched drain loop shared by every consumer flavor; returns the
    // pages it saw (validating order), -1 on a corruption.
    auto drain = [&](PageSourceRef reader, int cancel_after) -> int {
      int64_t expect = -1;
      std::vector<PageRef> got;
      int count = 0;
      for (;;) {
        got.clear();
        std::size_t n = reader->NextBatch(7, &got);
        if (n == 0) break;
        for (const PageRef& page : got) {
          int64_t value = FirstValue(page) / 100;
          if (expect < 0) expect = value;  // late attachers still start at 0
          if (value != expect) return -1;
          ++expect;
          ++count;
        }
        if (cancel_after > 0 && count >= cancel_after) {
          reader->CancelConsumer();  // cancel mid-batch-stream
          break;
        }
      }
      return count;
    };

    std::vector<std::thread> threads;
    // Two steady readers attached before production.
    for (int r = 0; r < 2; ++r) {
      auto reader = channel->AttachReader();
      ASSERT_NE(reader, nullptr);
      threads.emplace_back([&, reader] {
        int count = drain(reader, 0);
        if (count != kPages || !reader->FinalStatus().ok()) {
          failures.fetch_add(1);
        }
      });
    }
    // One reader cancels mid-drain.
    {
      auto reader = channel->AttachReader();
      ASSERT_NE(reader, nullptr);
      threads.emplace_back([&, reader] {
        if (drain(reader, kPages / 4) < 0) failures.fetch_add(1);
      });
    }
    // Late attachers arrive while the producer runs; whoever attaches
    // before the seal must still see the FULL history (possibly from the
    // spill tier).
    for (int r = 0; r < 3; ++r) {
      threads.emplace_back([&] {
        while (window_open.load()) {
          auto reader = channel->AttachReader();
          if (reader == nullptr) return;  // sealed: valid outcome
          int count = drain(reader, 0);
          if (count < 0) failures.fetch_add(1);
          if (count >= 0 && reader->FinalStatus().ok() && count != kPages) {
            failures.fetch_add(1);  // un-cancelled reader missed history
          }
          return;
        }
      });
    }

    std::thread producer([&] {
      std::vector<PageRef> batch;
      for (int i = 0; i < kPages; ++i) {
        batch.push_back(MakePage(i, 1));
        if (batch.size() == 4) {
          channel->PutBatch(std::move(batch));
          batch = {};
        }
      }
      if (!batch.empty()) channel->PutBatch(std::move(batch));
      channel->Close(Status::OK());
      window_open.store(false);
    });

    producer.join();
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0) << "iteration " << iter;
    EXPECT_EQ(retained->Get(), 0);
    EXPECT_EQ(spill_bytes->Get(), 0);
    EXPECT_EQ(governor->InMemoryPages(), 0u);
  }
}

// The lost-wakeup race the per-reader parking protocol must exclude: a
// reader parks at the frontier at the same instant the producer seals and
// closes. A lost wakeup hangs this test (ctest's timeout fails it); run
// many iterations to sample the interleaving space.
TEST(SplContentionTest, CloseRacingParkingReaderNeverLosesTheWakeup) {
  constexpr int kIterations = 300;
  for (int iter = 0; iter < kIterations; ++iter) {
    MetricsRegistry metrics;
    SharingChannelOptions options;
    options.metrics = &metrics;
    auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
    auto fast = channel->AttachReader();
    auto slow = channel->AttachReader();

    std::atomic<int> consumed{0};
    std::thread reader_a([&] {
      while (fast->Next() != nullptr) consumed.fetch_add(1);
    });
    std::thread reader_b([&] {
      while (slow->Next() != nullptr) consumed.fetch_add(1);
    });
    // A couple of pages, then an immediate seal+close: the readers are
    // either mid-drain, spinning, or parking right as closed_ flips.
    channel->Put(MakePage(iter, 1));
    channel->Put(MakePage(iter + 1, 1));
    channel->Close(Status::OK());
    reader_a.join();  // hangs here iff a wakeup was lost
    reader_b.join();
    EXPECT_EQ(consumed.load(), 4);
    EXPECT_TRUE(fast->FinalStatus().ok());
    EXPECT_TRUE(slow->FinalStatus().ok());
  }
}

// Producer-close wake semantics with a reader ALREADY parked: the close
// must reach a reader that went to sleep long before it.
TEST(SplContentionTest, ParkedReaderWakesOnCloseAndOnCancel) {
  MetricsRegistry metrics;
  {
    SharingChannelOptions options;
    options.metrics = &metrics;
    auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
    auto reader = channel->AttachReader();
    std::thread blocked([&] { EXPECT_EQ(reader->Next(), nullptr); });
    // Give the reader time to pass the spin phase and genuinely park.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    channel->Close(Status::OK());
    blocked.join();
    EXPECT_TRUE(reader->FinalStatus().ok());
  }
  {
    SharingChannelOptions options;
    options.metrics = &metrics;
    auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
    auto reader = channel->AttachReader();
    std::thread blocked([&] { EXPECT_EQ(reader->Next(), nullptr); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    reader->CancelConsumer();  // cross-thread cancel must also wake it
    blocked.join();
    EXPECT_EQ(reader->FinalStatus().code(), StatusCode::kAborted);
    channel->Close(Status::OK());
  }
}

// Many readers parked simultaneously: one append's seeded wakeup must
// propagate through the chained fan-out to every frontier reader.
TEST(SplContentionTest, ChainedWakeupReachesEveryParkedReader) {
  constexpr int kReaders = 16;
  constexpr int kRounds = 50;
  MetricsRegistry metrics;
  SharingChannelOptions options;
  options.metrics = &metrics;
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));

  std::vector<PageSourceRef> readers;
  for (int r = 0; r < kReaders; ++r) readers.push_back(channel->AttachReader());
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      while (readers[r]->Next() != nullptr) total.fetch_add(1);
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    // Let the herd drain and park, then publish ONE page: the chain (not
    // the producer) must fan the single seeded notification out to all
    // kReaders parked consumers. A stranded reader hangs the join.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    channel->Put(MakePage(round, 1));
  }
  channel->Close(Status::OK());
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), kReaders * kRounds);
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesCopied)->Get(), 0);
}

// ---------------------------------------------------------------------------
// Batch adapters: the packet-side wrappers Stage wires around every
// packet's inputs and output.
// ---------------------------------------------------------------------------

TEST(BatchPipeTest, SinkBuffersUntilBatchAndFlushesOnClose) {
  auto fifo = std::make_shared<FifoBuffer>(/*capacity_pages=*/16);
  BatchingSink sink(fifo, /*batch=*/4);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(sink.Put(MakePage(i, 1)));
  // 4 flushed at the batch boundary, 2 still buffered.
  EXPECT_EQ(fifo->Size(), 4u);
  sink.Close(Status::OK());
  EXPECT_EQ(fifo->Size(), 6u) << "Close must flush the partial batch";

  BatchingSource source(fifo, /*batch=*/4);
  for (int i = 0; i < 6; ++i) {
    PageRef page = source.Next();
    ASSERT_NE(page, nullptr);
    EXPECT_EQ(FirstValue(page), i * 100);
    EXPECT_EQ(source.PagesDelivered(), static_cast<std::size_t>(i + 1));
  }
  EXPECT_EQ(source.Next(), nullptr);
  EXPECT_TRUE(source.FinalStatus().ok());
}

TEST(BatchPipeTest, SinkReportsDeadConsumerWithinOneBatch) {
  auto fifo = std::make_shared<FifoBuffer>(/*capacity_pages=*/16);
  BatchingSink sink(fifo, /*batch=*/4);
  fifo->CancelReader();
  // The delayed-false contract: at most batch-1 buffered puts may still
  // report true; the flush at the boundary must surface the dead reader.
  bool alive = true;
  for (int i = 0; i < 4 && alive; ++i) alive = sink.Put(MakePage(i, 1));
  EXPECT_FALSE(alive);
  EXPECT_FALSE(sink.Put(MakePage(9, 1))) << "a dead sink must stay dead";
}

}  // namespace
}  // namespace sharing
