// Unit tests for src/common: status, random, metrics, dates and the
// worker pool.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/elastic_pool.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/status_or.h"
#include "common/stopwatch.h"
#include "common/types.h"

namespace sharing {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing table");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing table");
  EXPECT_EQ(st.ToString(), "NotFound: missing table");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kIoError); ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::Internal("boom");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

Status ReturnsEarly(bool fail) {
  SHARING_RETURN_NOT_OK(fail ? Status::Aborted("x") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_TRUE(ReturnsEarly(false).ok());
  EXPECT_EQ(ReturnsEarly(true).code(), StatusCode::kAborted);
}

// ---------------------------------------------------------------------------
// Dates
// ---------------------------------------------------------------------------

TEST(DateTest, EpochIsZero) {
  EXPECT_EQ(MakeDate(1992, 1, 1).days_since_epoch, 0);
}

TEST(DateTest, RoundTripsAllSsbDays) {
  for (int32_t day = 0; day < 2556; ++day) {
    Date d{day};
    int y, m, dd;
    SplitDate(d, &y, &m, &dd);
    EXPECT_EQ(MakeDate(y, m, dd).days_since_epoch, day);
  }
}

TEST(DateTest, LeapYearHandled) {
  Date feb29 = MakeDate(1992, 2, 29);
  Date mar1 = MakeDate(1992, 3, 1);
  EXPECT_EQ(mar1.days_since_epoch - feb29.days_since_epoch, 1);
}

TEST(DateTest, DateKeyFormat) {
  EXPECT_EQ(DateKey(MakeDate(1994, 6, 7)), 19940607);
}

TEST(DateTest, ToStringFormat) {
  EXPECT_EQ(DateToString(MakeDate(1998, 12, 1)), "1998-12-01");
}

// ---------------------------------------------------------------------------
// Rng / Zipf
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntCoversDomain) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, AlphaStringHasRequestedLength) {
  Rng rng(4);
  EXPECT_EQ(rng.AlphaString(12).size(), 12u);
}

TEST(ZipfTest, StaysInDomain) {
  ZipfGenerator zipf(100, 0.99, 5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Next(), 100u);
}

TEST(ZipfTest, SkewFavorsSmallValues) {
  ZipfGenerator zipf(1000, 0.99, 6);
  int head = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next() < 10) ++head;
  }
  // With theta=0.99, the top-10 of 1000 items draw far more than 1% of
  // samples.
  EXPECT_GT(head, n / 20);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterPointerStable) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("x");
  c1->Add(5);
  Counter* c2 = registry.GetCounter("x");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c2->Get(), 5);
}

TEST(MetricsTest, SnapshotDelta) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Add(10);
  auto before = registry.Snapshot();
  registry.GetCounter("a")->Add(7);
  registry.GetCounter("b")->Add(3);
  auto delta = MetricsRegistry::Delta(before, registry.Snapshot());
  EXPECT_EQ(delta["a"], 7);
  EXPECT_EQ(delta["b"], 3);
}

TEST(MetricsTest, ConcurrentIncrements) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 10000; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Get(), 40000);
}

TEST(HistogramTest, EmptyReportsZero) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  EXPECT_EQ(h->TotalCount(), 0);
  EXPECT_EQ(h->RecordedMin(), 0);
  EXPECT_EQ(h->RecordedMax(), 0);
  EXPECT_EQ(h->ValueAtQuantile(0.5), 0);
}

TEST(HistogramTest, QuantileClampedAtBucketBoundary) {
  // A single recording of exactly a power of two: the bucket's geometric
  // middle (1.5 * 2^b) used to overshoot the only value ever recorded.
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  h->Record(1024);
  EXPECT_EQ(h->RecordedMin(), 1024);
  EXPECT_EQ(h->RecordedMax(), 1024);
  EXPECT_EQ(h->ValueAtQuantile(0.5), 1024);
  EXPECT_EQ(h->ValueAtQuantile(0.99), 1024);
}

TEST(HistogramTest, NegativeRecordingsStayInRange) {
  // Negatives land in bucket 0 (log bucketing has nowhere else for
  // them); the quantile estimate must not invent a positive value.
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  h->Record(-5);
  h->Record(0);
  EXPECT_EQ(h->TotalCount(), 2);
  EXPECT_EQ(h->RecordedMin(), -5);
  EXPECT_EQ(h->RecordedMax(), 0);
  EXPECT_LE(h->ValueAtQuantile(0.5), 0);
  EXPECT_GE(h->ValueAtQuantile(0.5), -5);
}

TEST(HistogramTest, QuantilesOrderedAndBounded) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  for (int i = 1; i <= 1000; ++i) h->Record(i);
  const int64_t p50 = h->ValueAtQuantile(0.50);
  const int64_t p95 = h->ValueAtQuantile(0.95);
  const int64_t p99 = h->ValueAtQuantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1);
  EXPECT_LE(p99, 1000);
}

TEST(MetricsTest, SnapshotIncludesHistogramViews) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  h->Record(100);
  h->Record(200);
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap["lat.count"], 2);
  ASSERT_TRUE(snap.count("lat.p50"));
  ASSERT_TRUE(snap.count("lat.p95"));
  ASSERT_TRUE(snap.count("lat.p99"));
  EXPECT_GE(snap["lat.p50"], 100);
  EXPECT_LE(snap["lat.p99"], 200);
  EXPECT_GE(snap["lat.p99"], snap["lat.p50"]);
}

// ---------------------------------------------------------------------------
// ElasticThreadPool
// ---------------------------------------------------------------------------

TEST(ElasticPoolTest, GrowsPastInitialSize) {
  ElasticThreadPool pool(1);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  const int kTasks = 8;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      int now = running.fetch_add(1) + 1;
      int old = peak.load();
      while (now > old && !peak.compare_exchange_weak(old, now)) {
      }
      // Block until every task has started: only an elastic pool can get
      // all of them running at once.
      while (!release.load()) {
        if (running.load() == kTasks) release.store(true);
        std::this_thread::yield();
      }
      running.fetch_sub(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < kTasks) std::this_thread::yield();
  EXPECT_EQ(peak.load(), kTasks);
  pool.Shutdown();
}

// Regression test: a task must never wait behind a *blocked* worker. Task i
// blocks until task i+1 has started, so the whole batch completes only if
// every task gets its own worker. The original Submit spawned a worker only
// when idle_workers_ == 0 — but a notified worker stays counted as idle
// until it wakes, so a rapid burst of submits queued tasks with no worker
// reserved and this chain deadlocked.
TEST(ElasticPoolTest, ChainedBlockingTasksDoNotDeadlock) {
  ElasticThreadPool pool(1);
  const int kTasks = 16;
  std::vector<std::atomic<bool>> started(kTasks);
  for (auto& s : started) s.store(false);
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&, i] {
      started[i].store(true);
      if (i + 1 < kTasks) {
        // Wait for the *next* submitted task — only schedulable if the
        // pool reserved a worker for it rather than queueing it behind us.
        while (!started[i + 1].load()) std::this_thread::yield();
      }
      done.fetch_add(1);
    });
  }
  // Bounded wait so a regression fails rather than hangs the suite.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), kTasks);
  pool.Shutdown();
}

// The same property under multi-threaded submission bursts.
TEST(ElasticPoolTest, ConcurrentBurstSubmitReservesWorkerPerTask) {
  ElasticThreadPool pool(2);
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 8;
  constexpr int kTasks = kSubmitters * kPerSubmitter;
  std::atomic<int> running{0};
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        pool.Submit([&] {
          if (running.fetch_add(1) + 1 == kTasks) release.store(true);
          while (!release.load()) std::this_thread::yield();
          done.fetch_add(1);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), kTasks);
  pool.Shutdown();
}

// With initial == max the pool is a fixed set (CJOIN's page workers): a
// burst queues behind blocked workers instead of spawning more.
TEST(ElasticPoolTest, CapHoldsUnderBurst) {
  ElasticThreadPool pool(2, 2);
  std::atomic<bool> release{false};
  std::atomic<int> blocked{0};
  std::atomic<int> done{0};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&, i] {
      if (i < 2) {
        blocked.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      }
      done.fetch_add(1);
    });
  }
  while (blocked.load() < 2) std::this_thread::yield();
  EXPECT_EQ(pool.num_threads(), 2u);
  EXPECT_EQ(done.load(), 0);
  release.store(true);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_EQ(pool.num_threads(), 2u);
  pool.Shutdown();
}

TEST(StopwatchTest, CpuTimerAdvancesUnderWork) {
  CpuTimer timer;
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 20'000'000; ++i) sink = sink + i;
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace sharing
