// The SP memory governor in action: a pull-model sharing session with a
// stalled satellite, run once without a budget (the laggard pins the
// host's whole result in RAM) and once with one (overflow spills to a
// temp file and faults back bit-exactly when the laggard finally reads).
//
//   ./spill_demo [budget_pages] [scale_factor]
//
// Watch sp.pages_retained.hwm: unbounded it tracks the result size;
// budgeted, the governor spills the excess while sp.pages_spilled /
// sp.spill_bytes absorb it. The budget is not a hard cap: the producer
// keeps appending while the spill-write window is full, so the
// high-water mark can exceed budget + window. Exits 1 unless both
// readers match the ReferenceExecutor's result, the governed run spilled
// at least one page, and sp.pages_retained and sp.spill_bytes return to
// zero after the stalled reader drains.

#include <cstdio>
#include <cstdlib>

#include "core/sharing_engine.h"
#include "exec/reference_executor.h"
#include "workload/tpch.h"

using namespace sharing;

namespace {

int64_t Metric(Database& db, const std::string& name) {
  return db.metrics()->Snapshot()[name];
}

void PrintSpState(Database& db, const char* when) {
  std::printf("  [%s]\n", when);
  std::printf("    sp.pages_retained      = %lld (hwm %lld)\n",
              static_cast<long long>(Metric(db, metrics::kSpPagesRetained)),
              static_cast<long long>(Metric(
                  db, std::string(metrics::kSpPagesRetained) + ".hwm")));
  std::printf("    sp.pages_spilled       = %lld\n",
              static_cast<long long>(Metric(db, metrics::kSpPagesSpilled)));
  std::printf("    sp.spill_bytes         = %lld\n",
              static_cast<long long>(Metric(db, metrics::kSpSpillBytes)));
  std::printf("    sp.unspill_reads       = %lld\n",
              static_cast<long long>(Metric(db, metrics::kSpUnspillReads)));
}

bool Check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "  FAILED: %s\n", what);
  return ok;
}

int RunOnce(std::size_t budget, double sf) {
  DatabaseOptions db_options;
  db_options.buffer_pool_frames = 65536;
  Database db(db_options);
  auto table = tpch::GenerateLineitem(db.catalog(), db.buffer_pool(), sf);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }

  // A host and a satellite sharing one scan (Q1's input — a page count
  // worth budgeting); the satellite stalls until the host has fully
  // drained, the worst case for pull retention.
  PlanNodeRef scan = tpch::MakeQ1Plan(90)->children()[0];
  auto expected = ReferenceExecutor(db.catalog()).Execute(*scan);
  if (!expected.ok()) {
    std::fprintf(stderr, "%s\n", expected.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> want = expected.value().CanonicalRows();

  QPipeOptions options{.sp_mode = SpMode::kPull};
  options.sp_memory_budget = budget;
  QPipeEngine engine(db.catalog(), options, db.metrics());

  std::printf("\n=== sp_memory_budget = %s ===\n",
              budget == 0 ? "unbounded" : std::to_string(budget).c_str());

  QueryHandle host = engine.Submit(scan);
  QueryHandle stalled = engine.Submit(scan);
  auto host_result = host.Collect();
  if (!host_result.ok()) {
    std::fprintf(stderr, "%s\n", host_result.status().ToString().c_str());
    return 1;
  }
  PrintSpState(db, "host drained, satellite stalled");

  auto late_result = stalled.Collect();
  if (!late_result.ok()) {
    std::fprintf(stderr, "%s\n", late_result.status().ToString().c_str());
    return 1;
  }
  const bool equal = late_result.value().CanonicalRows() == want;
  std::printf("  stalled reader drained: %zu rows, %s the reference result\n",
              late_result.value().num_rows(),
              equal ? "bit-identical to" : "DIFFERENT FROM");
  PrintSpState(db, "all readers drained");

  bool ok = Check(host_result.value().CanonicalRows() == want,
                  "host result differs from the reference");
  ok &= Check(equal, "stalled reader's result differs from the reference");
  if (budget > 0) {
    ok &= Check(Metric(db, metrics::kSpPagesSpilled) > 0,
                "governed run spilled no pages");
  }
  ok &= Check(Metric(db, metrics::kSpPagesRetained) == 0,
              "sp.pages_retained did not return to 0");
  ok &= Check(Metric(db, metrics::kSpSpillBytes) == 0,
              "sp.spill_bytes did not return to 0");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t budget =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 16;
  double sf = argc > 2 ? std::atof(argv[2]) : 0.02;

  std::printf("TPC-H lineitem at SF=%.3f; pull-SP session with a stalled\n",
              sf);
  std::printf("satellite, without and with the SP memory governor.\n");

  int rc = RunOnce(0, sf);        // unbounded: retention tracks the result
  if (rc == 0) rc = RunOnce(budget, sf);  // governed: overflow spills
  if (rc == 0) {
    std::printf(
        "\nExpected shape: unbounded retention's high-water mark tracks\n"
        "the scan's page count; the governed run spills the overflow (its\n"
        "high-water mark may still pass the budget while spill writes are\n"
        "in flight) and frees every spill byte after the stalled reader\n"
        "drains — same bit-exact result either way.\n");
  }
  return rc;
}
