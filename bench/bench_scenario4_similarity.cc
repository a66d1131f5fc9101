// Scenario IV (paper §4.4, Fig. 5): impact of similarity — combining SP
// with a GQP.
//
// High concurrency (16 clients), fixed selectivity, disk-resident,
// batched submission (maximizes SP opportunities and amortizes GQP
// admission). x-axis: number of distinct plans in the mix (fewer plans =>
// more common sub-plans); series: GQP alone vs GQP with SP enabled on the
// CJOIN stage. The paper calls out SP-opportunities-exploited per stage as
// the key metric here — printed in the last columns.
//
// Paper-expected shape: with few distinct plans, gqp+sp avoids
// re-admitting duplicate sub-plans (admissions column shrinks, sp-hits
// column grows) and throughput rises; with many distinct plans the two
// lines converge.

#include "bench_common.h"

using namespace sharing;
using namespace sharing::bench;

int main() {
  const double sf = ScaleFactor(0.02);
  const double window = WindowSeconds(2.0);

  auto db = MakeDiskDb(/*frames=*/512);
  // Same scaled-down rotational model as Scenario II: CJOIN's admission
  // and bookkeeping savings are CPU effects; the full 15kRPM model buries
  // them under I/O on a small container.
  db->SetDiskResident(/*read_latency_micros=*/55, /*bandwidth_mib=*/15000);
  std::printf("Generating SSB, SF=%.3f (disk-resident regime) ...\n", sf);
  SHARING_CHECK_OK(ssb::GenerateAll(db->catalog(), db->buffer_pool(), sf));

  SharingEngine engine(db.get(), SsbEngineConfig());
  constexpr std::size_t kClients = 16;  // high concurrency

  PrintHeader(
      "Scenario IV: throughput vs #distinct plans (16 clients, batched, "
      "disk-resident)");
  std::printf("%-8s %-15s %10s %12s %12s %10s %10s\n", "plans", "mode", "qps",
              "mean(ms)", "admissions", "adm(ms)", "sp-hits");

  for (int plans : {1, 2, 4, 8, 16, 32}) {
    for (EngineMode mode : {EngineMode::kGqp, EngineMode::kGqpSp}) {
      engine.SetMode(mode);
      auto before = db->metrics()->Snapshot();

      DriverOptions driver_options;
      driver_options.num_clients = kClients;
      driver_options.duration_seconds = window;
      driver_options.batched = true;

      auto report = RunClosedLoop(
          driver_options,
          [&](std::size_t client, uint64_t iteration) {
            ssb::StarTemplateParams params;
            params.selectivity = 0.01;
            params.num_variants = plans;
            params.variant =
                static_cast<int>((client + iteration * 5) % plans);
            // Distinct aggregation tops per client: queries share the star
            // sub-plan (CJOIN's input) but not the whole plan, so sharing
            // must happen at the CJOIN stage — the paper's Fig. 2 set-up.
            params.agg_variant = static_cast<int>(client % 8);
            // Four-dimension star: a wider star makes each admission
            // costlier (the query evaluates its predicates over four
            // dimension tables on its own thread). SP on the CJOIN stage
            // skips admission for a duplicate sub-plan, along with its
            // emission and the operators above the GQP.
            params.join_part = true;
            return ssb::ParameterizedStarPlan(params);
          },
          [&](const PlanNodeRef& plan) {
            auto r = engine.Execute(plan);
            return r.ok() ? Status::OK() : r.status();
          });

      auto delta = MetricsRegistry::Delta(before, db->metrics()->Snapshot());
      std::printf("%-8d %-15s %10.2f %12.1f %12lld %10.1f %10lld\n", plans,
                  std::string(EngineModeToString(mode)).c_str(),
                  report.throughput_qps, report.mean_response_ms,
                  static_cast<long long>(
                      delta[metrics::kCjoinQueriesAdmitted]),
                  double(delta[metrics::kCjoinAdmissionMicros]) / 1e3,
                  static_cast<long long>(delta[metrics::kSpOpportunities]));
    }
    std::printf("\n");
  }

  std::printf(
      "Expected shape (paper Fig. 5): at 1 distinct plan, gqp+sp admits a\n"
      "fraction of the queries to the pipeline (sp-hits serve the rest\n"
      "from shared results) and beats plain gqp; the advantage shrinks as\n"
      "the number of distinct plans approaches the client count.\n");
  return 0;
}
