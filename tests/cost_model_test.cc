// Deterministic unit tests for the per-signature adaptive cost model:
// ring-buffer windowing, the thin-history prior, decision flip
// hysteresis, confidence monotonicity, spill forecasting, and the
// signature LRU with the popularity gaps it reports.
// Everything here feeds synthetic history — no engine, no threads, no
// clocks — so the decisions are exactly reproducible.

#include "qpipe/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace sharing {
namespace {

constexpr uint64_t kSig = 0xdeadbeef;

SignatureStats::SessionSample Session(double satellites, double pages,
                                      double lag = 0, double retention = 0) {
  SignatureStats::SessionSample s;
  s.satellites = satellites;
  s.pages = pages;
  s.lag = lag;
  s.retention = retention;
  return s;
}

CostModelEnvironment Env(std::size_t fifo = 8, std::size_t budget = 0,
                         bool usable = false) {
  CostModelEnvironment env;
  env.fifo_capacity = fifo;
  env.budget_pages = budget;
  env.spill_usable = usable;
  return env;
}

// ---------------------------------------------------------------------------
// SignatureStats: ring-buffer history
// ---------------------------------------------------------------------------

TEST(SignatureStatsTest, RingWindowKeepsOnlyTheLastCapacitySamples) {
  SignatureStats stats(/*capacity=*/4);
  for (int i = 1; i <= 10; ++i) {
    stats.RecordExecution(100.0 * i);
    stats.RecordSession(Session(/*satellites=*/i, /*pages=*/i));
  }
  // Only 7..10 survive in every ring.
  EXPECT_EQ(stats.work_samples(), 4u);
  EXPECT_EQ(stats.session_samples(), 4u);
  EXPECT_DOUBLE_EQ(stats.MeanWorkMicros(), 100.0 * (7 + 8 + 9 + 10) / 4.0);
  EXPECT_DOUBLE_EQ(stats.MeanPages(), (7 + 8 + 9 + 10) / 4.0);
  EXPECT_DOUBLE_EQ(stats.MeanSatellites(), (7 + 8 + 9 + 10) / 4.0);
  // Nearest-rank quantiles over the window: min and max of the survivors.
  EXPECT_DOUBLE_EQ(stats.WorkMicrosAtQuantile(0.0), 700.0);
  EXPECT_DOUBLE_EQ(stats.WorkMicrosAtQuantile(1.0), 1000.0);
}

TEST(SignatureStatsTest, ArrivalGapsAreDeltasNotTimestamps) {
  SignatureStats stats(/*capacity=*/8);
  EXPECT_TRUE(std::isinf(stats.MeanArrivalGapMicros()));
  stats.RecordArrival(1'000);
  EXPECT_TRUE(std::isinf(stats.MeanArrivalGapMicros()));  // one point, no gap
  stats.RecordArrival(3'000);
  stats.RecordArrival(9'000);
  EXPECT_DOUBLE_EQ(stats.MeanArrivalGapMicros(), (2'000 + 6'000) / 2.0);
}

TEST(SignatureStatsTest, ExecutionWorkIsFlooredAtOneMicro) {
  SignatureStats stats(/*capacity=*/4);
  stats.RecordExecution(0.0);  // sub-tick measurement
  EXPECT_DOUBLE_EQ(stats.MeanWorkMicros(), 1.0);
}

// ---------------------------------------------------------------------------
// SharingCostModel: gating, hysteresis, confidence, spill
// ---------------------------------------------------------------------------

struct ModelRig {
  explicit ModelRig(CostModelOptions options)
      : model(options, &metrics) {}

  void Feed(int sessions, const SignatureStats::SessionSample& sample,
            double work_micros) {
    for (int i = 0; i < sessions; ++i) {
      model.RecordSession(kSig, sample);
      model.RecordExecution(kSig, work_micros);
    }
  }

  int64_t Flips() { return metrics.GetCounter(metrics::kPolicyFlips)->Get(); }
  int64_t Shared() {
    return metrics.GetCounter(metrics::kPolicyDecisionsShared)->Get();
  }
  int64_t Unshared() {
    return metrics.GetCounter(metrics::kPolicyDecisionsUnshared)->Get();
  }

  MetricsRegistry metrics;
  SharingCostModel model;
};

TEST(SharingCostModelTest, MinSamplesGatesTheModel) {
  CostModelOptions options;
  options.min_samples = 3;
  ModelRig rig(options);
  Gauge* confidence = rig.metrics.GetGauge(metrics::kPolicyConfidence);

  // Below the gate: the prior — pull, confidence 0 — however often it is
  // asked, and it leaves no trace in the policy.* metrics or the
  // signature's decision counts.
  rig.Feed(2, Session(2, 2), 1000);
  for (int i = 0; i < 3; ++i) {
    CostDecision prior = rig.model.Decide(kSig, Env());
    EXPECT_EQ(prior.mode, SpMode::kPull)
        << "two samples must not clear a three-sample gate";
    EXPECT_EQ(prior.confidence, 0.0);
    EXPECT_FALSE(prior.spill_preferred);
  }
  EXPECT_EQ(rig.Shared(), 0);
  EXPECT_EQ(rig.Unshared(), 0);
  EXPECT_EQ(rig.Flips(), 0);
  EXPECT_EQ(confidence->Get(), 0);
  auto snaps = rig.model.Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_FALSE(snaps[0].has_decision);
  EXPECT_EQ(snaps[0].decided_off + snaps[0].decided_push +
                snaps[0].decided_pull,
            0);

  // The first history-backed decision: the prior never became the
  // incumbent, so the incumbent is the cheaper shared transport — push
  // for this two-page, two-satellite history — and no flip is counted.
  // Pull sits inside the hysteresis band, so an incumbent pull (had the
  // prior been recorded as a decision) would have held.
  rig.Feed(1, Session(2, 2), 1000);
  CostDecision d = rig.model.Decide(kSig, Env());
  EXPECT_GT(d.confidence, 0.0);
  ASSERT_LT(d.estimate.push_micros, d.estimate.pull_micros);
  ASSERT_LE(d.estimate.pull_micros - d.estimate.push_micros,
            options.hysteresis * d.estimate.pull_micros)
      << "the test premise: pull is within the band of push";
  EXPECT_EQ(d.mode, SpMode::kPush);
  EXPECT_LT(d.estimate.push_micros, d.estimate.unshared_micros)
      << "two expected satellites make repeating 1ms of work the most "
         "expensive option";
  EXPECT_EQ(rig.Shared(), 1);
  EXPECT_EQ(rig.Unshared(), 0);
  EXPECT_EQ(rig.Flips(), 0);
  EXPECT_GT(confidence->Get(), 0);
}

TEST(SharingCostModelTest, DecisionFlipsOnlyBeyondTheHysteresisMargin) {
  CostModelOptions options;
  options.min_samples = 2;
  options.history = 2;  // a tiny ring so each phase fully replaces history
  options.hysteresis = 0.25;
  ModelRig rig(options);

  // Phase A: tiny result, two satellites -> push (copying one page per
  // satellite is cheaper than attach bookkeeping).
  rig.Feed(2, Session(2, 1), 1000);
  CostDecision a = rig.model.Decide(kSig, Env());
  ASSERT_GT(a.confidence, 0.0);
  EXPECT_EQ(a.mode, SpMode::kPush);
  EXPECT_EQ(rig.Flips(), 0);

  // Phase B: pages grow so pull becomes *slightly* cheaper — inside the
  // 25% band, the incumbent push must hold.
  rig.Feed(2, Session(2, 8), 1000);
  CostDecision b = rig.model.Decide(kSig, Env());
  ASSERT_GT(b.confidence, 0.0);
  EXPECT_LT(b.estimate.pull_micros, b.estimate.push_micros)
      << "the test premise: pull is now the cheaper transport";
  EXPECT_EQ(b.mode, SpMode::kPush) << "a marginal advantage must not flip";
  EXPECT_EQ(rig.Flips(), 0);

  // Phase C: a big result makes push's copy bill overwhelming — outside
  // the band, the decision flips (once).
  rig.Feed(2, Session(2, 100), 1000);
  CostDecision c = rig.model.Decide(kSig, Env());
  ASSERT_GT(c.confidence, 0.0);
  EXPECT_EQ(c.mode, SpMode::kPull);
  EXPECT_EQ(rig.Flips(), 1);

  // And it is sticky in the new state too.
  CostDecision c2 = rig.model.Decide(kSig, Env());
  EXPECT_EQ(c2.mode, SpMode::kPull);
  EXPECT_EQ(rig.Flips(), 1);
}

TEST(SharingCostModelTest, ConfidenceIsMonotonicInHistoryDepth) {
  CostModelOptions options;
  options.min_samples = 1;
  options.history = 16;
  ModelRig rig(options);

  double previous = 0.0;
  for (int i = 0; i < 24; ++i) {  // past the ring capacity on purpose
    rig.Feed(1, Session(1, 4), 500);
    CostDecision d = rig.model.Decide(kSig, Env());
    ASSERT_GT(d.confidence, 0.0);
    EXPECT_GE(d.confidence, previous - 1e-12)
        << "identical history must never lower confidence (sample " << i
        << ")";
    previous = d.confidence;
  }
  EXPECT_GT(previous, 0.5) << "a full ring of unanimous history is "
                              "better-than-coin-flip confident";
  EXPECT_LE(previous, 1.0);
}

TEST(SharingCostModelTest, UnsharableWorkIsAdmittedUnshared) {
  // Zero observed satellites and no arrival pressure: hosting a channel
  // is pure overhead, and the model must say so (the regime stage-wide
  // thresholds routed to pull "just in case").
  CostModelOptions options;
  options.min_samples = 2;
  ModelRig rig(options);
  rig.Feed(3, Session(0, 2), 100);
  CostDecision d = rig.model.Decide(kSig, Env());
  ASSERT_GT(d.confidence, 0.0);
  EXPECT_EQ(d.mode, SpMode::kOff);
  EXPECT_EQ(rig.Unshared(), 1);
  EXPECT_DOUBLE_EQ(d.estimate.expected_satellites, 0.0);
}

TEST(SharingCostModelTest, ArrivalRateRaisesTheSatelliteForecast) {
  // Same zero-satellite history, but twins arriving every 50us against
  // 100us of work must overlap: the forecast floor is W/gap = 2, and
  // sharing pays again.
  CostModelOptions options;
  options.min_samples = 2;
  ModelRig rig(options);
  rig.Feed(3, Session(0, 2), 100);
  for (int64_t t = 0; t <= 500; t += 50) rig.model.RecordArrival(kSig, t, t);
  CostDecision d = rig.model.Decide(kSig, Env());
  ASSERT_GT(d.confidence, 0.0);
  EXPECT_NEAR(d.estimate.expected_satellites, 2.0, 1e-9);
  EXPECT_NE(d.mode, SpMode::kOff);
}

TEST(SharingCostModelTest, RetentionBeyondBudgetPrefersPullWithSpill) {
  CostModelOptions options;
  options.min_samples = 2;
  ModelRig rig(options);
  // Heavy signature: big result, laggy consumers pinning 120 pages.
  rig.Feed(3, Session(/*satellites=*/6, /*pages=*/100, /*lag=*/8,
                      /*retention=*/120),
           5000);
  CostDecision d = rig.model.Decide(
      kSig, Env(/*fifo=*/8, /*budget=*/100, /*usable=*/true));
  ASSERT_GT(d.confidence, 0.0);
  EXPECT_EQ(d.mode, SpMode::kPull);
  EXPECT_TRUE(d.spill_preferred);
  EXPECT_DOUBLE_EQ(d.estimate.spill_pages, 20.0);

  // An unusable spill store must not promise absorption.
  CostDecision broken = rig.model.Decide(
      kSig, Env(/*fifo=*/8, /*budget=*/100, /*usable=*/false));
  EXPECT_FALSE(broken.spill_preferred);
  EXPECT_DOUBLE_EQ(broken.estimate.spill_pages, 0.0);
}

TEST(SharingCostModelTest, SignatureLruEvictsTheColdest) {
  CostModelOptions options;
  options.capacity = 2;
  ModelRig rig(options);
  rig.model.RecordExecution(1, 100);
  rig.model.RecordExecution(2, 100);
  rig.model.RecordExecution(1, 100);  // 1 is now the warmest
  rig.model.RecordExecution(3, 100);  // evicts 2
  auto snaps = rig.model.Snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  for (const auto& snap : snaps) {
    EXPECT_NE(snap.signature, 2u) << "the least-recently-touched signature "
                                     "must be the one evicted";
  }
}

TEST(SharingCostModelTest, PopularityGapsSurviveColdChurn) {
  // A 4-signature LRU under sustained cold churn: the recurring template
  // stays resident and reports its true gap every time, while the
  // one-offs cycle through the cold end.
  constexpr int64_t kNew = std::numeric_limits<int64_t>::max();
  CostModelOptions options;
  options.capacity = 4;
  ModelRig rig(options);
  int64_t seq = 0;
  auto arrive = [&](uint64_t sig) {
    ++seq;
    return rig.model.RecordArrival(sig, /*now_micros=*/seq * 100, seq);
  };

  EXPECT_EQ(arrive(kSig), kNew) << "a first sighting has no gap";
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_EQ(arrive(500 + round), kNew);
    EXPECT_EQ(arrive(700 + round), kNew);
    const int64_t gap = arrive(kSig);
    EXPECT_LE(gap, 3) << "round " << round;
    EXPECT_LE(gap, SharingCostModel::kPopularityWindow);
  }
  EXPECT_EQ(arrive(500), kNew)
      << "an evicted signature reports no gap, like a new one";

  // History from other hooks is not a sighting: a signature the model
  // knows only from executions has no previous arrival.
  rig.model.RecordExecution(42, 100);
  EXPECT_EQ(arrive(42), kNew);
  EXPECT_EQ(arrive(42), 1);
}

TEST(SharingCostModelTest, SnapshotReportsHistoryAndDecisions) {
  CostModelOptions options;
  options.min_samples = 1;
  ModelRig rig(options);
  rig.Feed(2, Session(3, 50), 2000);
  ASSERT_GT(rig.model.Decide(kSig, Env()).confidence, 0.0);
  auto snaps = rig.model.Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  const auto& s = snaps[0];
  EXPECT_EQ(s.signature, kSig);
  EXPECT_EQ(s.session_samples, 2u);
  EXPECT_DOUBLE_EQ(s.mean_pages, 50.0);
  EXPECT_DOUBLE_EQ(s.mean_work_micros, 2000.0);
  EXPECT_TRUE(s.has_decision);
  EXPECT_EQ(s.decided_off + s.decided_push + s.decided_pull, 1);
  EXPECT_FALSE(rig.model.DebugDump().empty());
}

}  // namespace
}  // namespace sharing
