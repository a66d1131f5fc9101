// Paper Fig. 1a: a satellite query cancels mid-flight while the host keeps
// producing for the remaining consumers.
//
//   ./cancel_demo [scale_factor]
//
// Three identical TPC-H Q1 queries are submitted with pull-based SP: one
// host evaluates the plan, two satellites attach. We cancel one satellite
// immediately; the other satellite and the host must still complete with
// full results. Exits 1 unless both match the ReferenceExecutor's result.

#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.h"
#include "core/sharing_engine.h"
#include "exec/reference_executor.h"
#include "workload/tpch.h"

using namespace sharing;

int main(int argc, char** argv) {
  double sf = argc > 1 ? std::atof(argv[1]) : 0.01;

  DatabaseOptions db_options;
  db_options.buffer_pool_frames = 65536;
  Database db(db_options);
  std::printf("Generating TPC-H lineitem at SF=%.3f ...\n", sf);
  auto table = tpch::GenerateLineitem(db.catalog(), db.buffer_pool(), sf);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }

  EngineConfig config;
  config.mode = EngineMode::kSpPull;
  SharingEngine engine(&db, config);
  PlanNodeRef q1 = tpch::MakeQ1Plan(90);
  auto expected = ReferenceExecutor(db.catalog()).Execute(*q1);
  if (!expected.ok()) {
    std::fprintf(stderr, "%s\n", expected.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> want = expected.value().CanonicalRows();

  QueryHandle host = engine.Submit(q1);
  QueryHandle satellite_a = engine.Submit(q1);
  QueryHandle satellite_b = engine.Submit(q1);

  std::printf("Cancelling satellite A mid-flight ...\n");
  satellite_a.Cancel();
  auto cancelled = satellite_a.Collect();
  std::printf("satellite A -> %s\n",
              cancelled.ok() ? "completed before the cancel landed"
                             : cancelled.status().ToString().c_str());

  auto host_result = host.Collect();
  auto sat_result = satellite_b.Collect();
  if (!host_result.ok() || !sat_result.ok()) {
    std::fprintf(stderr, "host/satellite failed after cancel!\n");
    return 1;
  }
  const bool host_ok = host_result.value().CanonicalRows() == want;
  const bool sat_ok = sat_result.value().CanonicalRows() == want;
  std::printf("host        -> %zu rows (%s)\n", host_result.value().num_rows(),
              host_ok ? "matches the reference" : "MISMATCH");
  std::printf("satellite B -> %zu rows (%s)\n", sat_result.value().num_rows(),
              sat_ok ? "matches the reference" : "MISMATCH");

  StageStats scan = engine.qpipe()->scan_stage()->GetStats();
  StageStats agg = engine.qpipe()->agg_stage()->GetStats();
  std::printf("\nstage stats: TSCAN executed=%lld sp-hits=%lld | "
              "AGG executed=%lld sp-hits=%lld\n",
              static_cast<long long>(scan.packets_executed),
              static_cast<long long>(scan.sp_hits),
              static_cast<long long>(agg.packets_executed),
              static_cast<long long>(agg.sp_hits));
  return host_ok && sat_ok ? 0 : 1;
}
