// Scenario III (paper §4.4, Fig. 5): impact of selectivity.
//
// Low concurrency (2 clients — at or below the container's parallelism,
// which is what "low concurrency" means in the paper's rules of thumb),
// memory-resident database, template parameters randomized across 1024
// variants, SP enabled on all stages for both lines. x-axis: query
// selectivity; series: QPipe query-centric (+SP) vs CJOIN GQP. The
// variants rarely repeat a whole plan, but sp-pull still shares the
// lineorder and date scans (the "tscan-sat" column).
//
// Paper-expected shape: shared operators carry a per-tuple bookkeeping
// overhead (a bitmap AND for each fact row at each probe level it
// reaches), so at low concurrency the query-centric line wins — most
// clearly at low selectivity, where query-centric operators touch little
// data while the GQP still streams the whole fact table through the
// pipeline. The "probe-rows" column counts rows entering each probe
// level, summed over levels (cjoin.bitmap_and_ops): every fact row enters
// the first level, later levels see only the rows still wanted.

#include "bench_common.h"

using namespace sharing;
using namespace sharing::bench;

int main() {
  const double sf = ScaleFactor(0.005);
  const double window = WindowSeconds(2.0);

  auto db = MakeMemoryDb();
  std::printf("Generating SSB, SF=%.3f (memory-resident) ...\n", sf);
  SHARING_CHECK_OK(ssb::GenerateAll(db->catalog(), db->buffer_pool(), sf));

  SharingEngine engine(db.get(), SsbEngineConfig());
  constexpr std::size_t kClients = 2;  // low concurrency (== cores)

  PrintHeader(
      "Scenario III: throughput vs selectivity (2 clients, memory-resident)");
  std::printf("%-12s %-15s %10s %12s %14s %10s\n", "selectivity", "mode",
              "qps", "mean(ms)", "probe-rows", "tscan-sat");

  for (double selectivity : {0.001, 0.01, 0.04, 0.08, 0.16, 0.32}) {
    for (EngineMode mode : {EngineMode::kSpPull, EngineMode::kGqp}) {
      engine.SetMode(mode);
      auto before = db->metrics()->Snapshot();
      const StageStats scan_before = engine.qpipe()->scan_stage()->GetStats();

      DriverOptions driver_options;
      driver_options.num_clients = kClients;
      driver_options.duration_seconds = window;

      auto report = RunClosedLoop(
          driver_options,
          [&](std::size_t client, uint64_t iteration) {
            ssb::StarTemplateParams params;
            params.selectivity = selectivity;
            params.num_variants = 1024;  // randomized: scans still share
            params.variant =
                static_cast<int>((client * 131 + iteration * 7) % 1024);
            return ssb::ParameterizedStarPlan(params);
          },
          [&](const PlanNodeRef& plan) {
            auto r = engine.Execute(plan);
            return r.ok() ? Status::OK() : r.status();
          });

      auto delta = MetricsRegistry::Delta(before, db->metrics()->Snapshot());
      std::printf("%-12.3f %-15s %10.2f %12.1f %14lld %10.2f\n", selectivity,
                  std::string(EngineModeToString(mode)).c_str(),
                  report.throughput_qps, report.mean_response_ms,
                  static_cast<long long>(delta[metrics::kCjoinBitmapAndOps]),
                  ScanSatelliteShare(scan_before,
                                     engine.qpipe()->scan_stage()->GetStats()));
    }
    std::printf("\n");
  }

  std::printf(
      "Expected shape (paper Fig. 5 / rule of thumb): at low concurrency\n"
      "the query-centric line (sp-pull) beats gqp across selectivities —\n"
      "the probe-rows column shows the bookkeeping the GQP pays: every fact\n"
      "row enters the first probe level whether or not anyone wants it.\n");
  return 0;
}
