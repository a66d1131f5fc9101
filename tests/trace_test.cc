// Unit tests for common/trace: ring wraparound, concurrent writers vs a
// live exporter, the disabled path's zero-allocation/near-zero-cost
// contract, Chrome trace-event JSON well-formedness, and the CJOIN
// pipeline's spans.

#include "common/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "core/sharing_engine.h"
#include "workload/ssb.h"

// Process-wide allocation counter (this test binary only): proves the
// disabled trace path allocates nothing. Counts every global operator
// new, including gtest's own — tests sample it around a quiesced region.
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms must be replaced too: libstdc++'s stable_sort
// temporary buffer allocates through them, and a default (sanitizer-
// intercepted) nothrow new paired with the malloc-backed plain delete
// below is an alloc-dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sharing {
namespace {

/// Brace/bracket balance outside string literals — the cheap
/// well-formedness check (ci/check_trace.sh's validator does the full
/// structural pass).
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        ASSERT_GT(depth, 0) << "unbalanced close in trace JSON";
        --depth;
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string in trace JSON";
  EXPECT_EQ(depth, 0) << "unbalanced braces in trace JSON";
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::Disable();
    Trace::Clear();
  }
  void TearDown() override {
    Trace::Disable();
    Trace::Clear();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  Trace::RecordComplete("test", "never", 0, 10, 1, 2);
  Trace::RecordInstant("test", "never", 1, 2);
  {
    TraceSpan span("test", "never.span", 1, 2);
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(Trace::ResidentEvents(), 0u);
  EXPECT_NE(Trace::ExportChromeJson().find("\"traceEvents\":[]"),
            std::string::npos);
}

TEST_F(TraceTest, SpanAndInstantExportChromeFields) {
  Trace::Enable(64);
  {
    TraceSpan span("unit", "unit.span", 7, 0x1234);
    span.AddArg("pages", 3);
  }
  TRACE_EVENT("unit", "unit.instant", 7, 0x1234);
  Trace::Disable();

  const std::string json = Trace::ExportChromeJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"name\":\"unit.span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit.instant\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
  EXPECT_NE(json.find("\"query_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"signature\":\"0x1234\""), std::string::npos);
  EXPECT_NE(json.find("\"pages\":3"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(TraceTest, RingOverwritesOldestKeepsNewest) {
  Trace::Enable(/*buffer_events=*/16);
  for (int i = 1; i <= 100; ++i) {
    Trace::RecordInstant("unit", "wrap", static_cast<uint64_t>(i), 0);
  }
  Trace::Disable();
  EXPECT_EQ(Trace::ResidentEvents(), 16u);

  const std::string json = Trace::ExportChromeJson();
  ExpectBalancedJson(json);
  // The last 16 recordings (query ids 85..100) survive; the first is long
  // overwritten. An id's args object is {"query_id":N}, so match through
  // the closing brace to avoid prefix collisions (1 vs 100).
  EXPECT_NE(json.find("\"query_id\":100}"), std::string::npos);
  EXPECT_NE(json.find("\"query_id\":85}"), std::string::npos);
  EXPECT_EQ(json.find("\"query_id\":1}"), std::string::npos);
  EXPECT_EQ(json.find("\"query_id\":84}"), std::string::npos);
}

TEST_F(TraceTest, ConcurrentWritersWithLiveExporter) {
  Trace::Enable(/*buffer_events=*/256);
  constexpr int kWriters = 4;
  constexpr int kIterations = 20000;
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([t, &done] {
      for (int i = 0; i < kIterations; ++i) {
        {
          TraceSpan span("unit", "worker.span",
                         static_cast<uint64_t>(t + 1), 0xabcdef);
          span.AddArg("i", i);
        }
        TRACE_EVENT("unit", "worker.instant", static_cast<uint64_t>(t + 1),
                    0xabcdef);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  // Export concurrently with the writers: torn slots must be skipped
  // (never exported half-written), and nothing may crash or race.
  while (done.load(std::memory_order_acquire) < kWriters) {
    ExpectBalancedJson(Trace::ExportChromeJson());
  }
  for (auto& w : writers) w.join();
  Trace::Disable();

  // Quiesced: every ring is full (kIterations * 2 per thread >> 256).
  EXPECT_GE(Trace::ResidentEvents(), static_cast<std::size_t>(kWriters) * 256);
  const std::string json = Trace::ExportChromeJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"name\":\"worker.span\""), std::string::npos);
}

TEST_F(TraceTest, ClearDropsEverythingAndRecordingResumes) {
  Trace::Enable(64);
  TRACE_EVENT("unit", "before.clear", 1, 0);
  EXPECT_GT(Trace::ResidentEvents(), 0u);
  Trace::Clear();
  EXPECT_EQ(Trace::ResidentEvents(), 0u);
  TRACE_EVENT("unit", "after.clear", 2, 0);
  EXPECT_EQ(Trace::ResidentEvents(), 1u);
  EXPECT_NE(Trace::ExportChromeJson().find("after.clear"), std::string::npos);
}

TEST_F(TraceTest, InternStringDedupes) {
  const char* a = Trace::InternString("run_packet:tscan");
  const char* b = Trace::InternString("run_packet:tscan");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "run_packet:tscan");
  const char* c = Trace::InternString("run_packet:join");
  EXPECT_NE(a, c);
}

TEST_F(TraceTest, GqpStarRecordsCjoinAdmitAndPageSpans) {
  DatabaseOptions db_options;
  Database db(db_options);
  ASSERT_TRUE(ssb::GenerateAll(db.catalog(), db.buffer_pool(), 0.001).ok());
  EngineConfig config;
  config.mode = EngineMode::kGqp;
  config.fact_table = "lineorder";
  config.cjoin_levels = ssb::PipelineLevels();
  SharingEngine engine(&db, config);

  Trace::Enable(/*buffer_events=*/4096);
  auto result = engine.Execute(ssb::ParameterizedStarPlan({}));
  Trace::Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::string json = Trace::ExportChromeJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"name\":\"cjoin.admit\",\"cat\":\"cjoin\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cjoin.page\",\"cat\":\"cjoin\""),
            std::string::npos);
  EXPECT_NE(json.find("\"rows\":"), std::string::npos);
  EXPECT_NE(json.find("\"queries\":1}"), std::string::npos);
}

TEST_F(TraceTest, DisabledPathAllocatesNothing) {
  Trace::Disable();
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    TRACE_SPAN("unit", "noop.span", 1, 2);
    TRACE_EVENT("unit", "noop.instant", 1, 2);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
}

/// A serially dependent LCG chain: cannot be vectorized or folded away,
/// so one iteration is a stable ~hundreds-of-cycles work unit that
/// dwarfs the disabled span's relaxed-load-and-branch. Unsigned, so the
/// wraparound is defined.
uint64_t WorkUnit(uint64_t seed) {
  uint64_t acc = seed;
  for (int i = 0; i < 1024; ++i) acc = acc * 1664525 + 1013904223;
  return acc;
}

TEST_F(TraceTest, DisabledOverheadUnderTwoPercent) {
  Trace::Disable();
  constexpr int kIterations = 10000;
  constexpr int kTrials = 9;
  volatile uint64_t sink = 0;

  // Min-of-N on interleaved trials: the minimum is the noise-free
  // estimate of each loop's true cost on this machine.
  double base_min = 0;
  double traced_min = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Stopwatch base;
    for (int i = 0; i < kIterations; ++i) sink = WorkUnit(sink + i);
    const double base_s = base.ElapsedSeconds();

    Stopwatch traced;
    for (int i = 0; i < kIterations; ++i) {
      TRACE_SPAN("unit", "overhead.span", 1, 2);
      sink = WorkUnit(sink + i);
    }
    const double traced_s = traced.ElapsedSeconds();

    if (trial == 0 || base_s < base_min) base_min = base_s;
    if (trial == 0 || traced_s < traced_min) traced_min = traced_s;
  }
  // The acceptance bound: tracing compiled in but disabled costs <2% on
  // a RunPacket-sized work loop. Sanitizer builds get slack: their
  // instrumentation inflates the branch's relative cost and the suite
  // runs under heavy parallel-ctest load, where min-of-N still jitters
  // past the release-build band.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr double kBound = 1.10;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  constexpr double kBound = 1.10;
#else
  constexpr double kBound = 1.02;
#endif
#else
  constexpr double kBound = 1.02;
#endif
  EXPECT_LT(traced_min, base_min * kBound)
      << "disabled tracing overhead: base=" << base_min * 1e3
      << "ms traced=" << traced_min * 1e3 << "ms";
}

}  // namespace
}  // namespace sharing
