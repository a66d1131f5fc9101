// Quickstart: build an in-memory SSB database, run one query under every
// execution mode of the sharing engine, and check each result against the
// single-threaded ReferenceExecutor.
//
//   ./quickstart [scale_factor]
//
// This is the smallest end-to-end tour of the public API:
//   Database -> generators -> EngineConfig -> SharingEngine -> plans.
// Exits 1 if any mode fails or returns a different result set.

#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.h"
#include "core/sharing_engine.h"
#include "exec/reference_executor.h"
#include "workload/ssb.h"

using namespace sharing;

int main(int argc, char** argv) {
  double sf = argc > 1 ? std::atof(argv[1]) : 0.01;

  // 1. A database: disk manager + buffer pool + catalog. Memory-resident:
  //    generous frames, no I/O latency model.
  DatabaseOptions db_options;
  db_options.buffer_pool_frames = 65536;
  Database db(db_options);

  std::printf("Generating SSB at SF=%.3f ...\n", sf);
  Status st = ssb::GenerateAll(db.catalog(), db.buffer_pool(), sf);
  if (!st.ok()) {
    std::fprintf(stderr, "generation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const auto& name : db.catalog()->TableNames()) {
    std::printf("  %-10s %8llu rows\n", name.c_str(),
                static_cast<unsigned long long>(
                    db.catalog()->GetTable(name).value()->num_rows()));
  }

  // 2. An engine with the CJOIN pipeline attached (needed for GQP modes).
  EngineConfig config;
  config.mode = EngineMode::kQueryCentric;
  config.fact_table = "lineorder";
  config.cjoin_levels = ssb::PipelineLevels();
  SharingEngine engine(&db, config);

  // 3. A query plan: SSB Q3.1 (customer x supplier x date star join), and
  //    its expected result from the naive reference evaluator.
  auto plan_or = ssb::MakeQuery(3, 1);
  if (!plan_or.ok()) {
    std::fprintf(stderr, "%s\n", plan_or.status().ToString().c_str());
    return 1;
  }
  PlanNodeRef plan = plan_or.value();
  std::printf("\nPlan: %s\n", plan->Canonical().c_str());
  auto expected = ReferenceExecutor(db.catalog()).Execute(*plan);
  if (!expected.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 expected.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> want = expected.value().CanonicalRows();

  // 4. Execute under every mode; sharing never changes results.
  int mismatches = 0;
  for (EngineMode mode :
       {EngineMode::kQueryCentric, EngineMode::kSpPush, EngineMode::kSpPull,
        EngineMode::kSpAdaptive, EngineMode::kGqp, EngineMode::kGqpSp}) {
    const std::string name(EngineModeToString(mode));
    engine.SetMode(mode);
    Stopwatch timer;
    auto result = engine.Execute(plan);
    if (!result.ok()) {
      std::fprintf(stderr, "[%s] failed: %s\n", name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    const bool same = result.value().CanonicalRows() == want;
    mismatches += !same;
    std::printf("\n[%-13s] %zu rows in %.1f ms, %s\n", name.c_str(),
                result.value().num_rows(), timer.ElapsedSeconds() * 1e3,
                same ? "matches the reference" : "MISMATCH");
    std::printf("%s", result.value().ToString(5).c_str());
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "\n%d of 6 modes differ from the reference.\n",
                 mismatches);
    return 1;
  }
  std::printf("\nAll six modes returned the reference result set (%zu rows).\n",
              want.size());
  return 0;
}
