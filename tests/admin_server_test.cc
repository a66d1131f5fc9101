// Tests for the embedded admin server, the shared metric serialization
// (JSON-lines and Prometheus must never drift), and the stall watchdog
// — including a true-positive with a genuinely parked SPL reader and a
// false-positive guard under a healthy workload.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_format.h"
#include "qpipe/engine.h"
#include "qpipe/sharing_channel.h"
#include "server/admin_server.h"
#include "server/watchdog.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::MakeTestDatabase;

// ---------------------------------------------------------------------------
// Metric serialization (satellite 1).
// ---------------------------------------------------------------------------

/// Every canonical metric name in src/common/metrics.h. A new constant
/// there must be added here (and to docs/METRICS.md, which
/// ci/check_docs.sh enforces) — the test below proves each sanitizes to
/// a valid, collision-free Prometheus name.
constexpr const char* kAllMetricNames[] = {
    metrics::kBufferPoolHits,
    metrics::kBufferPoolMisses,
    metrics::kBufferPoolEvictions,
    metrics::kDiskPageReads,
    metrics::kDiskPageWrites,
    metrics::kScanPagesRead,
    metrics::kScanSharedAttach,
    metrics::kSpOpportunities,
    metrics::kSpPagesCopied,
    metrics::kSpPagesShared,
    metrics::kSpBytesCopied,
    metrics::kSpPagesRetained,
    metrics::kSpPagesReclaimed,
    metrics::kSpPagesSpilled,
    metrics::kSpSpillBytes,
    metrics::kSpUnspillReads,
    metrics::kSpLockWaits,
    metrics::kSpReaderParks,
    metrics::kIoReadsIssued,
    metrics::kIoWritesIssued,
    metrics::kIoQueueDepth,
    metrics::kIoStallMicros,
    metrics::kIoQueueDepthPrefetch,
    metrics::kIoQueueDepthFaultback,
    metrics::kIoQueueDepthSpill,
    metrics::kIoStallMicrosPrefetch,
    metrics::kIoStallMicrosFaultback,
    metrics::kIoStallMicrosSpill,
    metrics::kPolicyDecisionsShared,
    metrics::kPolicyDecisionsUnshared,
    metrics::kPolicyFlips,
    metrics::kPolicyConfidence,
    metrics::kPolicyMeasuredCopyNs,
    metrics::kPolicyMeasuredAttachNs,
    metrics::kCjoinFactTuplesIn,
    metrics::kCjoinTuplesOut,
    metrics::kCjoinTuplesDropped,
    metrics::kCjoinQueriesAdmitted,
    metrics::kCjoinQueriesCompleted,
    metrics::kCjoinBitmapAndOps,
    metrics::kCjoinAdmissionEpochs,
    metrics::kCjoinAdmissionMicros,
    metrics::kQueriesFinished,
    metrics::kQueryLatencyMicros,
    metrics::kStageRunPacketMicros,
    metrics::kIoDispatchWaitPrefetch,
    metrics::kIoDispatchWaitFaultback,
    metrics::kIoDispatchWaitSpill,
    metrics::kWatchdogTicks,
    metrics::kWatchdogQueriesOverSlo,
    metrics::kWatchdogParkedReaders,
    metrics::kWatchdogIoSaturation,
    metrics::kWatchdogSpillThrash,
    metrics::kWatchdogUnhealthy,
};

bool IsValidPrometheusName(const std::string& name) {
  if (name.empty()) return false;
  auto first_ok = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!first_ok(name[0])) return false;
  for (char c : name) {
    if (!first_ok(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

TEST(MetricsFormatTest, EveryRegisteredNameSanitizesValidAndUnique) {
  std::set<std::string> seen;
  for (const char* raw : kAllMetricNames) {
    const std::string prom = PrometheusMetricName(raw);
    EXPECT_TRUE(IsValidPrometheusName(prom))
        << raw << " -> " << prom << " is not a valid Prometheus name";
    EXPECT_TRUE(seen.insert(prom).second)
        << raw << " -> " << prom << " collides with another metric";
  }
}

TEST(MetricsFormatTest, SanitizerRules) {
  EXPECT_EQ(PrometheusMetricName("sp.pages_spilled"), "sp_pages_spilled");
  EXPECT_EQ(PrometheusMetricName("io.queue_depth.spill"),
            "io_queue_depth_spill");
  EXPECT_EQ(PrometheusMetricName("7zip"), "_7zip");
  EXPECT_EQ(PrometheusMetricName("a-b c"), "a_b_c");
}

/// The flat JSON-lines snapshot and the typed Prometheus snapshot are
/// two renderings of ONE underlying snapshot: flattening the typed one
/// must reproduce Snapshot() exactly, so the formats cannot drift.
TEST(MetricsFormatTest, JsonAndPrometheusShareOneSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter(metrics::kSpPagesShared)->Add(42);
  registry.GetGauge(metrics::kSpPagesRetained)->Set(7);
  registry.GetGauge(metrics::kSpPagesRetained)->Set(3);
  auto* hist = registry.GetHistogram(metrics::kQueryLatencyMicros);
  for (int i = 1; i <= 100; ++i) hist->Record(i * 10);

  const TypedMetricsSnapshot typed = registry.SnapshotTyped();
  EXPECT_EQ(FlattenTypedSnapshot(typed), registry.Snapshot());

  const std::string prom = MetricsPrometheusText(typed);
  EXPECT_NE(prom.find("# TYPE sp_pages_shared counter"), std::string::npos);
  EXPECT_NE(prom.find("sp_pages_shared 42"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE sp_pages_retained gauge"), std::string::npos);
  EXPECT_NE(prom.find("sp_pages_retained 3"), std::string::npos);
  EXPECT_NE(prom.find("sp_pages_retained_hwm 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE query_latency summary"), std::string::npos);
  EXPECT_NE(prom.find("query_latency{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find("query_latency_count 100"), std::string::npos);

  const std::string json = MetricsJsonLine(registry.Snapshot(), 123);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"sp.pages_shared\":42"), std::string::npos);
  EXPECT_NE(json.find("\"uptime_ms\":123"), std::string::npos);
  // The JSON line and the bench metrics rows embed the same object.
  EXPECT_EQ(json, "{\"uptime_ms\":123,\"metrics\":" +
                      MetricsJsonObject(registry.Snapshot()) + "}");
}

// ---------------------------------------------------------------------------
// HTTP plumbing.
// ---------------------------------------------------------------------------

TEST(AdminServerTest, ServesRoutesAndErrors) {
  AdminServer::Options options;
  options.port = 0;
  AdminServer server(options);
  server.Handle("/hello", [](const HttpRequest& request) {
    auto it = request.params.find("name");
    return HttpResponse::Text(
        "hi " + (it == request.params.end() ? "world" : it->second));
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto ok = AdminHttpGet(server.port(), "/hello?name=qpipe");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().status, 200);
  EXPECT_EQ(ok.value().body, "hi qpipe");

  auto missing = AdminHttpGet(server.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  server.Stop();
  EXPECT_FALSE(AdminHttpGet(server.port(), "/hello").ok());
}

TEST(AdminServerTest, UdsListener) {
  const std::string path = ::testing::TempDir() + "/admin_test.sock";
  AdminServer::Options options;
  options.port = -1;
  options.uds_path = path;
  AdminServer server(options);
  server.Handle("/ping", [](const HttpRequest&) {
    return HttpResponse::Text("pong");
  });
  ASSERT_TRUE(server.Start().ok());
  auto r = AdminHttpGetUds(path, "/ping");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().body, "pong");
}

// ---------------------------------------------------------------------------
// Live-engine endpoints.
// ---------------------------------------------------------------------------

class AdminEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase();
    Schema schema({Column::Int64("id"), Column::Double("val")});
    auto t = db_->catalog()->CreateTable("t", schema, db_->buffer_pool());
    ASSERT_TRUE(t.ok());
    TableAppender appender(t.value());
    for (int64_t i = 0; i < 4000; ++i) {
      auto row = appender.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value().SetInt64(0, i).SetDouble(1, double(i % 31));
    }
    ASSERT_TRUE(appender.Finish().ok());
  }

  PlanNodeRef AggPlan(int64_t lt) {
    Schema schema = db_->catalog()->GetTable("t").value()->schema();
    auto scan = std::make_shared<ScanNode>(
        "t", schema, Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(lt)),
        std::vector<std::size_t>{0, 1});
    return std::make_shared<AggregateNode>(
        scan, std::vector<std::size_t>{},
        std::vector<AggSpec>{AggSpec::Sum(Col(1, ValueType::kDouble), "s"),
                             AggSpec::Count("n")});
  }

  std::unique_ptr<Database> db_;
};

TEST_F(AdminEngineTest, EndpointsServeEngineState) {
  QPipeOptions options{.sp_mode = SpMode::kPull};
  options.admin_port = 0;
  options.watchdog_period_ms = 50;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());
  ASSERT_NE(engine.admin_server(), nullptr);
  ASSERT_NE(engine.watchdog(), nullptr);
  const int port = engine.admin_server()->port();
  ASSERT_GT(port, 0);

  auto run = engine.Execute(AggPlan(3000));
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto metrics = AdminHttpGet(port, "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().body.find("# TYPE scan_pages_read counter"),
            std::string::npos);
  // The exposition must carry zero un-sanitized (dotted) names.
  for (const char* raw : kAllMetricNames) {
    if (std::strchr(raw, '.') != nullptr) {
      EXPECT_EQ(metrics.value().body.find(std::string("\n") + raw + " "),
                std::string::npos)
          << "raw dotted name leaked into /metrics: " << raw;
    }
  }

  auto metrics_json = AdminHttpGet(port, "/metrics.json");
  ASSERT_TRUE(metrics_json.ok());
  EXPECT_NE(metrics_json.value().body.find("\"scan.pages_read\""),
            std::string::npos);

  auto channels = AdminHttpGet(port, "/channels");
  ASSERT_TRUE(channels.ok());
  EXPECT_EQ(channels.value().body.rfind("{\"channels\":[", 0), 0u);

  auto cost = AdminHttpGet(port, "/cost_model");
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost.value().body.rfind("{\"stages\":[", 0), 0u);
  EXPECT_NE(cost.value().body.find("\"stage\":\"TSCAN\""), std::string::npos);

  auto queries = AdminHttpGet(port, "/queries");
  ASSERT_TRUE(queries.ok());
  EXPECT_EQ(queries.value().body.rfind("{\"queries\":[", 0), 0u);

  auto health = AdminHttpGet(port, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
  EXPECT_NE(health.value().body.find("\"healthy\":true"), std::string::npos);

  auto bad_explain = AdminHttpGet(port, "/explain");
  ASSERT_TRUE(bad_explain.ok());
  EXPECT_EQ(bad_explain.value().status, 400);
  auto unknown = AdminHttpGet(port, "/explain?query=999999");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().status, 404);

  auto index = AdminHttpGet(port, "/");
  ASSERT_TRUE(index.ok());
  EXPECT_NE(index.value().body.find("/metrics"), std::string::npos);
}

TEST_F(AdminEngineTest, ExplainAndQueriesSeeInFlightQuery) {
  QPipeOptions options{.sp_mode = SpMode::kPull};
  options.admin_port = 0;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());
  const int port = engine.admin_server()->port();

  QueryHandle handle = engine.Submit(AggPlan(3500));
  ASSERT_TRUE(handle.valid());
  const uint64_t qid = handle.context()->query_id();

  auto queries = AdminHttpGet(port, "/queries");
  ASSERT_TRUE(queries.ok());
  EXPECT_NE(
      queries.value().body.find("\"query_id\":" + std::to_string(qid)),
      std::string::npos);

  auto explain =
      AdminHttpGet(port, "/explain?query=" + std::to_string(qid));
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain.value().status, 200);
  EXPECT_NE(explain.value().body.find("\"query_id\":" + std::to_string(qid)),
            std::string::npos);

  auto result = handle.Collect();
  ASSERT_TRUE(result.ok());
  // Finished queries age out of /queries on the next scrape.
  auto after = AdminHttpGet(port, "/queries");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().body.find("\"query_id\":" + std::to_string(qid)),
            std::string::npos);
}

/// TSan target: four scrapers hammer every endpoint while queries run.
/// The scrape path must ride existing synchronization only.
TEST_F(AdminEngineTest, ConcurrentScrapersVsRunningQueries) {
  QPipeOptions options{.sp_mode = SpMode::kPull};
  options.admin_port = 0;
  options.watchdog_period_ms = 5;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());
  const int port = engine.admin_server()->port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  const char* targets[] = {"/metrics", "/channels", "/queries",
                           "/cost_model", "/healthz"};
  for (int s = 0; s < 4; ++s) {
    scrapers.emplace_back([&, s] {
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto r = AdminHttpGet(port, targets[(s + i++) % 5]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    std::vector<QueryHandle> handles;
    for (int q = 0; q < 4; ++q) {
      handles.push_back(engine.Submit(AggPlan(3000 + 100 * q)));
    }
    for (auto& handle : handles) {
      auto r = handle.Collect();
      ASSERT_TRUE(r.ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : scrapers) t.join();
  EXPECT_GT(engine.admin_server()->requests_served(), 0);
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

PageRef MakeWatchdogPage() {
  auto page = std::make_shared<RowPage>(sizeof(int64_t), 16);
  int64_t v = 1;
  page->AppendRow(reinterpret_cast<const uint8_t*>(&v));
  return page;
}

/// True positive: a REAL pull-channel reader genuinely parked in
/// ParkUntilReady (its producer publishes nothing) must degrade
/// /healthz within one watchdog period, and recovery must clear it.
TEST(WatchdogTest, ParkedReaderDegradesHealthThenRecovers) {
  MetricsRegistry registry;
  SharingChannelOptions copts;
  copts.metrics = &registry;
  SharingChannelRef channel = MakeSharingChannel(SpMode::kPull, copts);
  auto reader = channel->AttachReader();
  ASSERT_NE(reader, nullptr);

  PageRef got;
  std::thread consumer([&] { got = reader->Next(); });  // parks: no pages

  EngineInspector inspector;
  inspector.metrics = &registry;
  inspector.channels = [&channel] {
    std::vector<Stage::ChannelSnapshot> out;
    out.push_back({"TEST", 0x1234, channel->Introspect()});
    return out;
  };

  Watchdog::Options wopts;
  wopts.period_ms = 20;
  wopts.parked_reader_ms = 40;
  wopts.spill_thrash_pages = 0;
  wopts.io_queue_depth_limit = 0;
  Watchdog watchdog(wopts, inspector);
  watchdog.Start();

  AdminServer::Options aopts;
  aopts.port = 0;
  AdminServer server(aopts);
  EngineInspector sinspector;
  sinspector.metrics = &registry;
  RegisterEngineEndpoints(&server, sinspector, &watchdog);
  ASSERT_TRUE(server.Start().ok());

  // The reader parks immediately; once it has been parked past the
  // threshold, the next tick (one period) must flip health.
  bool degraded = false;
  for (int i = 0; i < 100 && !degraded; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto r = AdminHttpGet(server.port(), "/healthz");
    ASSERT_TRUE(r.ok());
    degraded = r.value().status == 503;
  }
  EXPECT_TRUE(degraded) << "/healthz never flipped to 503";
  EXPECT_GT(registry.GetCounter(metrics::kWatchdogParkedReaders)->Get(), 0);
  EXPECT_EQ(registry.GetGauge(metrics::kWatchdogUnhealthy)->Get(), 1);

  // Unblock the reader; health must recover.
  channel->Put(MakeWatchdogPage());
  channel->Close(Status::OK());
  consumer.join();
  EXPECT_NE(got, nullptr);
  bool healthy = false;
  for (int i = 0; i < 100 && !healthy; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto r = AdminHttpGet(server.port(), "/healthz");
    ASSERT_TRUE(r.ok());
    healthy = r.value().status == 200;
  }
  EXPECT_TRUE(healthy) << "/healthz never recovered";
}

/// False-positive guard: a healthy engine under real load must stay
/// healthy through many watchdog ticks at default-shaped thresholds.
TEST(WatchdogTest, HealthyLoadStaysHealthy) {
  auto db = MakeTestDatabase();
  Schema schema({Column::Int64("id"), Column::Double("val")});
  auto t = db->catalog()->CreateTable("t", schema, db->buffer_pool());
  ASSERT_TRUE(t.ok());
  TableAppender appender(t.value());
  for (int64_t i = 0; i < 2000; ++i) {
    auto row = appender.AppendRow();
    ASSERT_TRUE(row.ok());
    row.value().SetInt64(0, i).SetDouble(1, double(i));
  }
  ASSERT_TRUE(appender.Finish().ok());

  QPipeOptions options{.sp_mode = SpMode::kPull};
  options.admin_port = 0;
  options.watchdog_period_ms = 5;
  QPipeEngine engine(db->catalog(), options, db->metrics());
  ASSERT_NE(engine.watchdog(), nullptr);

  Schema tschema = db->catalog()->GetTable("t").value()->schema();
  for (int round = 0; round < 10; ++round) {
    auto scan = std::make_shared<ScanNode>(
        "t", tschema,
        Cmp(CmpOp::kLt, Col(0, ValueType::kInt64), Lit(int64_t{1500})),
        std::vector<std::size_t>{0, 1});
    auto plan = std::make_shared<AggregateNode>(
        scan, std::vector<std::size_t>{},
        std::vector<AggSpec>{AggSpec::Count("n")});
    auto r = engine.Execute(plan);
    ASSERT_TRUE(r.ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const Watchdog::Health health = engine.watchdog()->GetHealth();
  EXPECT_TRUE(health.healthy)
      << "false positive: " << (health.reasons.empty() ? "?"
                                                       : health.reasons[0]);
  EXPECT_GT(health.ticks, 0);
  EXPECT_EQ(db->metrics()->GetCounter(metrics::kWatchdogQueriesOverSlo)->Get(),
            0);
  EXPECT_EQ(db->metrics()->GetCounter(metrics::kWatchdogParkedReaders)->Get(),
            0);
}

/// Deterministic synthetic conditions through TickNow: age SLO, I/O
/// saturation, and counter-delta spill thrash.
TEST(WatchdogTest, SyntheticConditionsTickDeterministically) {
  MetricsRegistry registry;
  std::atomic<int64_t> age_micros{0};
  std::atomic<std::size_t> spill_depth{0};

  EngineInspector inspector;
  inspector.metrics = &registry;
  inspector.queries = [&age_micros] {
    std::vector<QPipeEngine::LiveQueryInfo> out;
    QPipeEngine::LiveQueryInfo info;
    info.query_id = 7;
    info.age_micros = age_micros.load();
    info.stage = "AGG";
    out.push_back(info);
    return out;
  };
  inspector.io_queue_depths = [&spill_depth] {
    return std::vector<std::size_t>{0, 0, spill_depth.load()};
  };

  Watchdog::Options wopts;
  wopts.period_ms = 0;  // no thread: TickNow drives everything
  wopts.query_slo_ms = 100;
  wopts.io_queue_depth_limit = 8;
  wopts.spill_thrash_pages = 10;
  Watchdog watchdog(wopts, inspector);

  watchdog.TickNow();
  EXPECT_TRUE(watchdog.GetHealth().healthy);

  age_micros.store(200 * 1000);
  spill_depth.store(9);
  watchdog.TickNow();
  Watchdog::Health health = watchdog.GetHealth();
  EXPECT_FALSE(health.healthy);
  ASSERT_EQ(health.reasons.size(), 2u);
  EXPECT_EQ(registry.GetCounter(metrics::kWatchdogQueriesOverSlo)->Get(), 1);
  EXPECT_EQ(registry.GetCounter(metrics::kWatchdogIoSaturation)->Get(), 1);

  // Spill thrash needs movement in BOTH directions between two ticks.
  age_micros.store(0);
  spill_depth.store(0);
  registry.GetCounter(metrics::kSpPagesSpilled)->Add(8);
  registry.GetCounter(metrics::kSpUnspillReads)->Add(8);
  watchdog.TickNow();
  EXPECT_EQ(registry.GetCounter(metrics::kWatchdogSpillThrash)->Get(), 1);
  EXPECT_FALSE(watchdog.GetHealth().healthy);

  // No further movement: thrash clears.
  watchdog.TickNow();
  EXPECT_TRUE(watchdog.GetHealth().healthy);
  EXPECT_EQ(registry.GetCounter(metrics::kWatchdogTicks)->Get(), 4);
}

}  // namespace
}  // namespace sharing
