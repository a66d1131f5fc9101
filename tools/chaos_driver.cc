// Chaos harness: seeded fault schedules over the SSB workload.
//
// Usage: chaos_driver [seed]
//
// Generates a small SSB database, computes unfaulted reference results
// for all 13 queries, then replays the workload under a series of fault
// scenarios (disk faults, I/O dispatch faults + injected latency, host
// kills mid-sharing, spill-store failures, tight deadlines, everything
// at once). The invariants checked on every single query:
//
//   1. It terminates (the per-scenario deadline turns any would-be hang
//      into kDeadlineExceeded; the CI timeout is the outer backstop).
//   2. Its status is one of: OK, Aborted (cancelled), DeadlineExceeded,
//      or an error that traces back to an injected fault.
//   3. If it reports OK, its rows are bit-identical to the unfaulted
//      reference — a fault may fail a query, never corrupt it.
//
// The host-kill scenario additionally requires sharing.satellite_rerun
// to rise: satellites must actually recover from dead hosts, not merely
// error out. The gqp scenario runs the star joins through the CJOIN
// pipeline, whose fact scan reads ahead through the I/O scheduler; it
// requires that injected dispatch failures (which only readahead jobs
// meet there) never reach a query — a failed readahead is just a demand
// miss — and that an injected read fault on a fact page does end the
// queries still owed that page. Exit code 0 = all invariants held.
// ci/check_chaos.sh runs this under ASan with the fixed seed 42 plus one
// logged random seed.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/fault.h"
#include "core/sharing_engine.h"
#include "exec/reference_executor.h"
#include "workload/ssb.h"

namespace sharing {
namespace {

struct QuerySpec {
  int flight;
  int variant;
};

std::vector<QuerySpec> AllQueries() {
  std::vector<QuerySpec> qs;
  for (int flight = 1; flight <= 4; ++flight) {
    const int max_variant = flight == 3 ? 4 : 3;
    for (int variant = 1; variant <= max_variant; ++variant) {
      qs.push_back({flight, variant});
    }
  }
  return qs;
}

struct Scenario {
  std::string name;
  std::string fault_spec;       // armed for the whole scenario
  std::size_t timeout_ms = 10000;
  std::size_t io_retry_limit = 2;
  std::size_t sp_memory_budget = 0;
  EngineMode mode = EngineMode::kSpPull;
  bool expect_reruns = false;   // sharing.satellite_rerun must rise
  bool expect_deadlines = false;  // at least one kDeadlineExceeded
  /// CJOIN fact-scan faults: dispatch failures fire but never reach a
  /// query, and some query ends with a fact page's injected read fault.
  bool expect_fact_faults = false;
};

struct Tally {
  std::atomic<int> ok{0};
  std::atomic<int> deadline{0};
  std::atomic<int> aborted{0};
  std::atomic<int> injected{0};
  std::atomic<int> fact_faults{0};  // injected read faults on fact pages
  std::atomic<int> violations{0};
};

/// True when `st` is the disk layer's injected read fault on one of
/// `pages` ("injected read fault for page <id>").
bool IsReadFaultOn(const Status& st, const std::unordered_set<PageId>& pages) {
  static const std::string kPrefix = "injected read fault for page ";
  const std::string text = st.ToString();
  const std::size_t pos = text.find(kPrefix);
  if (pos == std::string::npos) return false;
  return pages.count(std::strtoull(text.c_str() + pos + kPrefix.size(),
                                   nullptr, 10)) > 0;
}

bool StatusAcceptable(const Status& st) {
  if (st.ok()) return true;
  if (st.code() == StatusCode::kDeadlineExceeded) return true;
  if (st.code() == StatusCode::kAborted) return true;
  return st.ToString().find("injected") != std::string::npos;
}

void RecordOutcome(const Status& st, Tally* tally) {
  if (st.ok()) {
    tally->ok.fetch_add(1);
  } else if (st.code() == StatusCode::kDeadlineExceeded) {
    tally->deadline.fetch_add(1);
  } else if (st.code() == StatusCode::kAborted) {
    tally->aborted.fetch_add(1);
  } else {
    tally->injected.fetch_add(1);
  }
}

int RunScenario(Database* db, const Scenario& scenario, uint64_t seed,
                const std::vector<QuerySpec>& queries,
                const std::vector<std::vector<std::string>>& reference,
                const std::unordered_set<PageId>& fact_pages) {
  std::printf("--- scenario %-10s spec=\"%s\" timeout=%zums\n",
              scenario.name.c_str(), scenario.fault_spec.c_str(),
              scenario.timeout_ms);

  EngineConfig config;
  config.mode = scenario.mode;
  config.query_timeout_ms = scenario.timeout_ms;
  config.io_retry_limit = scenario.io_retry_limit;
  config.sp_memory_budget = scenario.sp_memory_budget;
  if (!scenario.fault_spec.empty()) {
    config.fault_spec = "seed=" + std::to_string(seed);
    config.fault_spec += "," + scenario.fault_spec;
  }
  if (scenario.mode == EngineMode::kGqp) {
    config.fact_table = "lineorder";
    config.cjoin_levels = ssb::PipelineLevels();
  }
  const int64_t reruns_before =
      db->metrics()->GetCounter(metrics::kSharingSatelliteRerun)->Get();

  Tally tally;
  // Records one query's outcome and flags any invariant it breaks.
  auto check = [&](const char* label,
                   const StatusOr<ResultSet>& result,
                   const std::vector<std::string>& want) {
    const Status& st = result.status();
    RecordOutcome(st, &tally);
    if (IsReadFaultOn(st, fact_pages)) tally.fact_faults.fetch_add(1);
    if (!StatusAcceptable(st)) {
      std::printf("VIOLATION: %s unacceptable status: %s\n", label,
                  st.ToString().c_str());
      tally.violations.fetch_add(1);
    } else if (scenario.expect_fact_faults &&
               st.ToString().find("io dispatch failure") !=
                   std::string::npos) {
      std::printf("VIOLATION: %s failed with a readahead fault: %s\n",
                  label, st.ToString().c_str());
      tally.violations.fetch_add(1);
    } else if (result.ok() && result.value().CanonicalRows() != want) {
      std::printf("VIOLATION: %s OK but rows differ from the unfaulted "
                  "reference\n",
                  label);
      tally.violations.fetch_add(1);
    }
  };
  auto demonstrated = [&] {
    if (scenario.expect_reruns &&
        db->metrics()->GetCounter(metrics::kSharingSatelliteRerun)->Get() ==
            reruns_before) {
      return false;
    }
    return !scenario.expect_fact_faults ||
           (tally.fact_faults.load() > 0 && tally.ok.load() > 0);
  };
  uint64_t dispatch_fires = 0;
  {
    SharingEngine engine(db, config);

    // Pass 1: every query once, from concurrent threads (distinct mixes).
    {
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
          for (std::size_t q = t; q < queries.size(); q += 4) {
            auto plan = ssb::MakeQuery(queries[q].flight, queries[q].variant);
            if (!plan.ok()) {
              tally.violations.fetch_add(1);
              continue;
            }
            char label[32];
            std::snprintf(label, sizeof(label), "Q%d.%d", queries[q].flight,
                          queries[q].variant);
            check(label, engine.Execute(plan.value()), reference[q]);
          }
        });
      }
      for (auto& t : threads) t.join();
    }

    // Pass 2: identical-query batches (host + satellites), until the
    // scenario's expected recovery path has been demonstrated.
    std::size_t q32 = 0;
    while (queries[q32].flight != 3 || queries[q32].variant != 2) ++q32;
    const bool must_demonstrate =
        scenario.expect_reruns || scenario.expect_fact_faults;
    const int rounds = must_demonstrate ? 40 : 4;
    for (int round = 0; round < rounds; ++round) {
      std::vector<QueryHandle> handles;
      for (int q = 0; q < 4; ++q) {
        handles.push_back(engine.Submit(ssb::MakeQuery(3, 2).value()));
      }
      std::vector<std::thread> threads;
      for (auto& handle : handles) {
        threads.emplace_back([&] {
          check("shared Q3.2", handle.Collect(), reference[q32]);
        });
      }
      for (auto& t : threads) t.join();
      if (must_demonstrate && demonstrated()) break;
    }
    dispatch_fires =
        FaultRegistry::Global().Fires(fault_points::kIoDispatchFail);
  }  // engine drains and shuts down here, faults still armed
  const uint64_t fires = FaultRegistry::Global().TotalFires();
  FaultRegistry::Global().Disarm();

  const int64_t reruns =
      db->metrics()->GetCounter(metrics::kSharingSatelliteRerun)->Get() -
      reruns_before;
  std::printf(
      "    ok=%d deadline=%d aborted=%d injected=%d fact_faults=%d "
      "reruns=%lld fires=%llu\n",
      tally.ok.load(), tally.deadline.load(), tally.aborted.load(),
      tally.injected.load(), tally.fact_faults.load(),
      static_cast<long long>(reruns), static_cast<unsigned long long>(fires));

  int violations = tally.violations.load();
  if (scenario.expect_reruns && reruns == 0) {
    std::printf("VIOLATION: host-kill scenario produced no satellite "
                "re-runs\n");
    ++violations;
  }
  if (scenario.expect_deadlines && tally.deadline.load() == 0) {
    std::printf("VIOLATION: deadline scenario tripped no deadlines\n");
    ++violations;
  }
  if (scenario.expect_fact_faults) {
    if (dispatch_fires == 0 || tally.ok.load() == 0) {
      std::printf("VIOLATION: gqp scenario never completed a query past a "
                  "failed readahead (dispatch fires=%llu)\n",
                  static_cast<unsigned long long>(dispatch_fires));
      ++violations;
    }
    if (tally.fact_faults.load() == 0) {
      std::printf("VIOLATION: gqp scenario never ended a query with a fact "
                  "page's injected read fault\n");
      ++violations;
    }
  }
  if (scenario.name == "control" &&
      (tally.ok.load() == 0 || tally.deadline.load() + tally.aborted.load() +
                                       tally.injected.load() !=
                                   0)) {
    std::printf("VIOLATION: control scenario must be all-OK\n");
    ++violations;
  }
  return violations;
}

int Run(uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  std::printf("chaos_driver: seed=%llu\n",
              static_cast<unsigned long long>(seed));

  // A pool far smaller than lineorder, so scans genuinely hit the disk
  // layer where most fault points live.
  DatabaseOptions db_options;
  db_options.buffer_pool_frames = 256;
  Database db(db_options);
  const double sf = 0.005;
  Status gen = ssb::GenerateAll(db.catalog(), db.buffer_pool(), sf);
  if (!gen.ok()) {
    std::printf("FATAL: SSB generation failed: %s\n", gen.ToString().c_str());
    return 1;
  }

  const auto queries = AllQueries();
  std::vector<std::vector<std::string>> reference;
  ReferenceExecutor ref(db.catalog());
  for (const auto& q : queries) {
    auto plan = ssb::MakeQuery(q.flight, q.variant);
    if (!plan.ok()) {
      std::printf("FATAL: MakeQuery(%d,%d): %s\n", q.flight, q.variant,
                  plan.status().ToString().c_str());
      return 1;
    }
    auto result = ref.Execute(*plan.value());
    if (!result.ok()) {
      std::printf("FATAL: reference Q%d.%d failed: %s\n", q.flight,
                  q.variant, result.status().ToString().c_str());
      return 1;
    }
    reference.push_back(result.value().CanonicalRows());
  }
  std::unordered_set<PageId> fact_pages;
  const Table* lineorder = db.catalog()->GetTable("lineorder").value();
  for (std::size_t i = 0; i < lineorder->num_pages(); ++i) {
    fact_pages.insert(lineorder->page_id(i));
  }

  const std::vector<Scenario> scenarios = {
      {.name = "control", .fault_spec = ""},
      {.name = "disk",
       .fault_spec = "disk.read=p0.01,disk.write=p0.05",
       .mode = EngineMode::kSpPull},
      {.name = "io",
       .fault_spec = "io.dispatch.fail=p0.05,io.dispatch.delay=p0.05*500",
       .mode = EngineMode::kSpAdaptive},
      {.name = "hostkill",
       .fault_spec = "sharing.append=n2",
       .mode = EngineMode::kSpPull,
       .expect_reruns = true},
      {.name = "spill",
       .fault_spec = "spill.open=once,disk.enospc=p0.1",
       .sp_memory_budget = 16,
       .mode = EngineMode::kSpPull},
      {.name = "deadline",
       .fault_spec = "io.dispatch.delay=p0.2*2000",
       .timeout_ms = 1,
       .mode = EngineMode::kSpPull,
       .expect_deadlines = true},
      {.name = "mixed",
       .fault_spec = "disk.read=p0.005,io.dispatch.fail=p0.02,"
                     "sharing.append=p0.01,disk.enospc=p0.02",
       .timeout_ms = 5000,
       .mode = EngineMode::kSpAdaptive},
      // No retries, so every dispatch fire fails a readahead job outright.
      {.name = "gqp",
       .fault_spec = "disk.read=p0.01,io.dispatch.fail=p0.05",
       .io_retry_limit = 0,
       .mode = EngineMode::kGqp,
       .expect_fact_faults = true},
  };

  int violations = 0;
  for (const auto& scenario : scenarios) {
    violations +=
        RunScenario(&db, scenario, seed, queries, reference, fact_pages);
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("chaos_driver: %s (%d violation%s, %.1fs)\n",
              violations == 0 ? "OK" : "FAILED", violations,
              violations == 1 ? "" : "s", elapsed);
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sharing

int main(int argc, char** argv) {
  uint64_t seed = 42;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);
  return sharing::Run(seed);
}
