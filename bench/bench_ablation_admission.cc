// Ablation D: CJOIN admission cost and the effect of batching.
//
// The paper's Scenario IV notes that batching client submissions
// "decreases admission costs for GQP". Admission here has two phases
// (cjoin/pipeline.h): each query evaluates its dimension predicates over
// the read-only flat dimension tables on its own thread, then the driver
// sets the query's bits in one pass over every query waiting at that
// moment, while fact pages keep flowing. This bench measures those driver
// passes (cjoin.admission_epochs) and their time per query
// (cjoin.admission_micros) as the batch size grows.

#include <thread>
#include <vector>

#include "bench_common.h"
#include "qpipe/fifo_buffer.h"

using namespace sharing;
using namespace sharing::bench;

namespace {

/// Runs `total` identical star queries in waves of `batch` simultaneous
/// submissions against a fresh pipeline; returns the metrics delta.
MetricsSnapshot RunWaves(Database* db, int total, int batch) {
  CJoinOptions options;
  options.max_queries = 64;
  CJoinPipeline pipeline(db->catalog(), "lineorder", ssb::PipelineLevels(),
                         options, db->metrics());

  auto plan = ssb::ParameterizedStarPlan(
      {.selectivity = 0.05, .num_variants = 1, .variant = 0});
  // CJOIN evaluates the star-join subtree; the template's aggregation above
  // it is query-centric and not part of the admission being measured.
  PlanNodeRef join_root = StarJoinRootOf(plan);
  SHARING_CHECK(join_root != nullptr);
  auto spec = StarQueryFromPlan(*join_root, "lineorder").value();

  auto before = db->metrics()->Snapshot();
  for (int done = 0; done < total; done += batch) {
    int wave = std::min(batch, total - done);
    std::vector<std::thread> threads;
    for (int i = 0; i < wave; ++i) {
      threads.emplace_back([&] {
        auto sink = std::make_shared<FifoBuffer>(64);
        auto ctx = std::make_shared<ExecContext>(1, db->metrics());
        std::thread drainer([&sink] {
          while (sink->Next()) {
          }
        });
        pipeline.ExecuteQuery(spec, ctx, sink);
        drainer.join();
      });
    }
    for (auto& t : threads) t.join();
  }
  return MetricsRegistry::Delta(before, db->metrics()->Snapshot());
}

}  // namespace

int main() {
  const double sf = ScaleFactor(0.005);
  auto db = MakeMemoryDb();
  std::printf("Generating SSB, SF=%.3f ...\n", sf);
  SHARING_CHECK_OK(ssb::GenerateAll(db->catalog(), db->buffer_pool(), sf));

  PrintHeader("Ablation D: CJOIN admission cost vs batch size");
  std::printf("%-8s %10s %12s %18s %18s\n", "batch", "queries",
              "epochs", "admission(ms)", "adm-ms/query");

  constexpr int kTotal = 16;
  for (int batch : {1, 2, 4, 8, 16}) {
    auto delta = RunWaves(db.get(), kTotal, batch);
    double adm_ms = double(delta[metrics::kCjoinAdmissionMicros]) / 1e3;
    std::printf("%-8d %10lld %12lld %18.2f %18.3f\n", batch,
                static_cast<long long>(delta[metrics::kCjoinQueriesAdmitted]),
                static_cast<long long>(delta[metrics::kCjoinAdmissionEpochs]),
                adm_ms, adm_ms / double(kTotal));
  }

  std::printf(
      "\nExpected shape: admission passes fall as batch size grows (one\n"
      "driver pass covers the whole wave), so the driver's admission time\n"
      "per query shrinks — the amortization the paper attributes to\n"
      "batching. No fact page waits for a pass either way.\n");
  return 0;
}
