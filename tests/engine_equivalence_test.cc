// The core correctness invariant of the paper's system: *sharing must not
// change results*. Every engine mode (query-centric, SP-push, SP-pull,
// GQP, GQP+SP) must produce result sets equivalent to the naive reference
// executor for the same plans — including under concurrency, batching,
// and randomized workloads (property-style, parameterized over modes).

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>

#include "core/sharing_engine.h"
#include "exec/reference_executor.h"
#include "test_util.h"
#include "workload/ssb.h"
#include "workload/tpch.h"

namespace sharing {
namespace {

using testing::ExpectResultsEquivalent;

/// Shared fixture state: generating SSB + TPC-H data once for the suite.
class EquivalenceEnv {
 public:
  static EquivalenceEnv& Get() {
    static EquivalenceEnv* env = new EquivalenceEnv();
    return *env;
  }

  Database* db() { return db_.get(); }

  const ResultSet& Reference(const PlanNodeRef& plan) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string key = plan->Canonical();
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      ReferenceExecutor ref(db_->catalog());
      auto r = ref.Execute(*plan);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      it = cache_.emplace(key, std::move(r).value()).first;
    }
    return it->second;
  }

 private:
  EquivalenceEnv() {
    DatabaseOptions options;
    options.buffer_pool_frames = 16384;
    db_ = std::make_unique<Database>(options);
    SHARING_CHECK_OK(ssb::GenerateAll(db_->catalog(), db_->buffer_pool(),
                                      /*scale_factor=*/0.002, /*seed=*/7));
    auto li = tpch::GenerateLineitem(db_->catalog(), db_->buffer_pool(),
                                     /*scale_factor=*/0.002, /*seed=*/7);
    SHARING_CHECK(li.ok()) << li.status().ToString();
  }

  std::unique_ptr<Database> db_;
  std::mutex mutex_;
  std::map<std::string, ResultSet> cache_;
};

EngineConfig ConfigFor(EngineMode mode) {
  EngineConfig config;
  config.mode = mode;
  config.fact_table = "lineorder";
  config.cjoin_levels = ssb::PipelineLevels();
  config.cjoin.max_queries = 32;
  return config;
}

class EngineModeTest : public ::testing::TestWithParam<EngineMode> {
 protected:
  std::unique_ptr<SharingEngine> MakeEngine() {
    return std::make_unique<SharingEngine>(EquivalenceEnv::Get().db(),
                                           ConfigFor(GetParam()));
  }
};

TEST_P(EngineModeTest, TpchQ1MatchesReference) {
  auto engine = MakeEngine();
  auto plan = tpch::MakeQ1Plan(90);
  auto got = engine->Execute(plan);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectResultsEquivalent(EquivalenceEnv::Get().Reference(plan),
                          got.value());
}

TEST_P(EngineModeTest, AllSsbQueriesMatchReference) {
  auto engine = MakeEngine();
  for (int flight = 1; flight <= 4; ++flight) {
    int max_variant = flight == 3 ? 4 : 3;
    for (int variant = 1; variant <= max_variant; ++variant) {
      auto plan_or = ssb::MakeQuery(flight, variant);
      ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
      auto plan = plan_or.value();
      auto got = engine->Execute(plan);
      ASSERT_TRUE(got.ok()) << "Q" << flight << "." << variant << ": "
                            << got.status().ToString();
      ExpectResultsEquivalent(
          EquivalenceEnv::Get().Reference(plan), got.value(),
          "Q" + std::to_string(flight) + "." + std::to_string(variant));
    }
  }
}

TEST_P(EngineModeTest, ConcurrentIdenticalQueriesAllCorrect) {
  auto engine = MakeEngine();
  auto plan = ssb::ParameterizedStarPlan({.selectivity = 0.05,
                                          .num_variants = 1,
                                          .variant = 0});
  const auto& want = EquivalenceEnv::Get().Reference(plan);

  constexpr int kQueries = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&] {
      auto got = engine->Execute(plan);
      if (got.ok() && got.value().CanonicalRows() == want.CanonicalRows()) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kQueries);
}

TEST_P(EngineModeTest, RandomizedWorkloadPropertyCheck) {
  auto engine = MakeEngine();
  Rng rng(static_cast<uint64_t>(GetParam()) * 1000 + 17);
  // Random mix of parameterized star plans across variants/selectivities,
  // executed concurrently in small batches.
  for (int round = 0; round < 3; ++round) {
    std::vector<PlanNodeRef> plans;
    for (int i = 0; i < 4; ++i) {
      ssb::StarTemplateParams params;
      params.selectivity = 0.01 + 0.04 * rng.UniformDouble();
      params.num_variants = 4;
      params.variant = static_cast<int>(rng.UniformInt(0, 3));
      params.join_part = rng.Bernoulli(0.3);
      plans.push_back(ssb::ParameterizedStarPlan(params));
    }
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (const auto& plan : plans) {
      threads.emplace_back([&, plan] {
        auto got = engine->Execute(plan);
        const auto& want = EquivalenceEnv::Get().Reference(plan);
        if (got.ok() && got.value().CanonicalRows() == want.CanonicalRows()) {
          ok.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(ok.load(), 4) << "round " << round;
  }
}

// Regression test for stage-pool starvation: a four-join chain nests JOIN
// packets below other JOIN packets, so an outer join's worker blocks on
// probe input produced by an inner join that is still queued. Eight
// concurrent submissions with distinct tops interleave enough packets that
// a fixed-size (or under-spawning) stage pool deadlocks here.
TEST_P(EngineModeTest, ConcurrentDeepJoinChainsDoNotStarveStages) {
  auto engine = MakeEngine();
  constexpr int kQueries = 8;
  std::vector<PlanNodeRef> plans;
  for (int i = 0; i < kQueries; ++i) {
    ssb::StarTemplateParams params;
    params.selectivity = 0.05;
    params.num_variants = 2;
    params.variant = i % 2;
    params.join_part = true;  // deepest chain the template offers
    params.agg_variant = i % 8;
    plans.push_back(ssb::ParameterizedStarPlan(params));
  }
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (const auto& plan : plans) {
    threads.emplace_back([&, plan] {
      auto got = engine->Execute(plan);
      const auto& want = EquivalenceEnv::Get().Reference(plan);
      if (got.ok() && got.value().CanonicalRows() == want.CanonicalRows()) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kQueries);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, EngineModeTest,
    ::testing::Values(EngineMode::kQueryCentric, EngineMode::kSpPush,
                      EngineMode::kSpPull, EngineMode::kSpAdaptive,
                      EngineMode::kGqp, EngineMode::kGqpSp),
    [](const auto& info) {
      std::string name(EngineModeToString(info.param));
      for (auto& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(EngineModeSwitchTest, ModeChangesAtRuntimeKeepCorrectness) {
  SharingEngine engine(EquivalenceEnv::Get().db(),
                       ConfigFor(EngineMode::kQueryCentric));
  auto plan = ssb::MakeQuery(3, 2).value();
  const auto& want = EquivalenceEnv::Get().Reference(plan);
  for (EngineMode mode :
       {EngineMode::kQueryCentric, EngineMode::kSpPull, EngineMode::kGqp,
        EngineMode::kGqpSp, EngineMode::kSpPush, EngineMode::kSpAdaptive,
        EngineMode::kQueryCentric}) {
    engine.SetMode(mode);
    auto got = engine.Execute(plan);
    ASSERT_TRUE(got.ok()) << EngineModeToString(mode) << ": "
                          << got.status().ToString();
    ExpectResultsEquivalent(want, got.value(),
                            std::string(EngineModeToString(mode)));
  }
}

// EngineConfig is a QPipeOptions: non-default transport knobs must reach
// every stage, the CJOIN stage included (it is built from the same derived
// Stage::Options). 2-page FIFOs, a 4-page SP budget that forces
// spilling, and synchronous I/O must not change any result in any mode.
TEST(EngineModeSwitchTest, InheritedOptionsReachEveryStageInEveryMode) {
  auto* env = &EquivalenceEnv::Get();
  EngineConfig config = ConfigFor(EngineMode::kGqpSp);
  config.fifo_capacity = 2;
  config.sp_memory_budget = 4;
  config.io_threads = 0;
  SharingEngine engine(env->db(), config);
  ASSERT_NE(engine.qpipe()->sp_governor(), nullptr);
  EXPECT_EQ(engine.qpipe()->sp_governor()->budget_pages(), 4u);
  EXPECT_EQ(engine.qpipe()->base_stage_options().fifo_capacity, 2u);
  EXPECT_EQ(engine.qpipe()->io_scheduler(), nullptr);

  auto star = ssb::ParameterizedStarPlan({.selectivity = 0.05,
                                          .num_variants = 1,
                                          .variant = 0});
  auto q32 = ssb::MakeQuery(3, 2).value();
  const auto& want_star = env->Reference(star);
  const auto& want_q32 = env->Reference(q32);
  const auto before = env->db()->metrics()->Snapshot();
  for (EngineMode mode :
       {EngineMode::kQueryCentric, EngineMode::kSpPush, EngineMode::kSpPull,
        EngineMode::kSpAdaptive, EngineMode::kGqp, EngineMode::kGqpSp}) {
    engine.SetMode(mode);
    // Four identical stars plus Q3.2, all in flight and drained
    // concurrently (a push host blocks on its slowest satellite's FIFO).
    const std::vector<PlanNodeRef> plans = {star, star, star, star, q32};
    std::vector<std::optional<StatusOr<ResultSet>>> results(plans.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      threads.emplace_back(
          [&, i] { results[i].emplace(engine.Execute(plans[i])); });
    }
    for (auto& t : threads) t.join();
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const std::string label = std::string(EngineModeToString(mode)) +
                                (plans[i] == star ? " star" : " Q3.2");
      const auto& got = *results[i];
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      ExpectResultsEquivalent(plans[i] == star ? want_star : want_q32,
                              got.value(), label);
    }
  }
  auto delta =
      MetricsRegistry::Delta(before, env->db()->metrics()->Snapshot());
  EXPECT_GT(delta[metrics::kSpPagesSpilled], 0);
}

TEST(EngineModeSwitchTest, GqpSharesAdmissionsForIdenticalPlans) {
  auto* env = &EquivalenceEnv::Get();
  SharingEngine engine(env->db(), ConfigFor(EngineMode::kGqpSp));
  auto plan = ssb::ParameterizedStarPlan({.selectivity = 0.05,
                                          .num_variants = 1,
                                          .variant = 0});

  auto before = env->db()->metrics()->Snapshot();
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 4; ++i) handles.push_back(engine.Submit(plan));
  for (auto& h : handles) {
    auto got = h.Collect();
    ASSERT_TRUE(got.ok());
  }
  auto delta =
      MetricsRegistry::Delta(before, env->db()->metrics()->Snapshot());
  // SP over the CJOIN stage: fewer pipeline admissions than queries.
  EXPECT_LT(delta[metrics::kCjoinQueriesAdmitted], 4);
  EXPECT_GE(delta[metrics::kSpOpportunities], 1);
}

}  // namespace
}  // namespace sharing
