// Ablation F: adaptive per-packet SP admission vs the static modes, and
// the per-signature cost model vs one stage-wide choice.
//
// Part 1 (hot/cold mix): the paper stresses that sharing is not always a
// win: hosting a sharing session costs registry bookkeeping and (push)
// copy serialization or (pull) page retention, which a never-matched
// query simply wastes. A mixed workload — a hot template submitted in
// bursts (high sharing value) interleaved with cold one-off queries (zero
// sharing value) — runs under off/push/pull/adaptive and reports wall
// time, SP hits, pages copied vs shared, the SPL retention high-water
// mark, and the adaptive policy's per-packet decisions. In the adaptive
// row a hot signature's first hosted sessions run the cost model's
// thin-history prior (pull), and the model prices the rest. Expected
// shape: adaptive tracks the best static mode on both ends.
//
// Part 2 (heterogeneous signatures): two hot templates with opposite cost
// profiles — a skinny ~2%-selectivity scan and a fat whole-table scan —
// hammer the SAME scan stage of one engine running SpMode::kAdaptive
// (stage-wide push/pull forced on neither). Stage-wide statistics would
// hand both templates whatever transport the blended means favor; the
// per-signature cost model must split them: the fat laggy result goes
// pull (cheap attaches, retention-tolerant), the skinny one goes push or
// unshared (copying a page or two beats pull bookkeeping). The bench
// prints each signature's history means and decision counts from
// Stage::CostModelSnapshot().
//
// SHARING_BENCH_SF scales the data; SHARING_BENCH_JSON=<path> also emits
// both parts as JSON (ci/verify.sh records BENCH_adaptive.json).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/explain.h"

using namespace sharing;
using namespace sharing::bench;

namespace {

struct RunResult {
  double wall_ms = 0;
  MetricsSnapshot delta;
  StageStats scan;
  StageStats agg;
};

RunResult RunMixedWorkload(Database* db, SpMode mode, int bursts,
                           int burst_width, int cold_per_burst) {
  // A registry per run so monotonic values (the retention high-water
  // mark in particular) are attributable to this mode alone.
  MetricsRegistry metrics;
  QPipeOptions options{.sp_mode = mode};
  QPipeEngine engine(db->catalog(), options, &metrics);
  PlanNodeRef hot = tpch::MakeQ1Plan(90);

  Stopwatch wall;
  int cold_cursor = 0;
  for (int b = 0; b < bursts; ++b) {
    std::vector<QueryHandle> handles;
    // A burst of identical hot-template queries (batched arrival, the
    // pattern SP exists for) ...
    for (int i = 0; i < burst_width; ++i) handles.push_back(engine.Submit(hot));
    // ... interleaved with cold one-offs that never repeat.
    for (int i = 0; i < cold_per_burst; ++i) {
      handles.push_back(
          engine.Submit(tpch::MakeQ1Plan(30 + (cold_cursor++ % 60))));
    }
    for (auto& h : handles) {
      auto r = h.Collect();
      SHARING_CHECK(r.ok()) << r.status().ToString();
    }
  }

  RunResult result;
  result.wall_ms = wall.ElapsedSeconds() * 1e3;
  result.delta = metrics.Snapshot();
  result.scan = engine.scan_stage()->GetStats();
  result.agg = engine.agg_stage()->GetStats();
  return result;
}

// ---------------------------------------------------------------------------
// Part 2: heterogeneous signatures on one adaptive stage
// ---------------------------------------------------------------------------

/// Skinny template: ~2% of lineitem, one projected column — a page or two
/// of output. Sharing it is nearly free either way; pull bookkeeping is
/// the only thing worth avoiding.
PlanNodeRef MakeSkinnyScan() {
  Schema schema = tpch::LineitemSchema();
  const std::size_t qty = schema.ColumnIndex("l_quantity").value();
  ExprRef pred = Cmp(CmpOp::kLt, Col(qty, ValueType::kDouble), Lit(2.0));
  return std::make_shared<ScanNode>("lineitem", schema, pred,
                                    std::vector<std::size_t>{qty});
}

/// Fat template: the whole table, wide projection (strings included) —
/// hundreds of output pages whose per-satellite copies are exactly the
/// push convoy the paper's pull model removes.
PlanNodeRef MakeFatScan() {
  Schema schema = tpch::LineitemSchema();
  const std::size_t qty = schema.ColumnIndex("l_quantity").value();
  ExprRef pred = Cmp(CmpOp::kLe, Col(qty, ValueType::kDouble), Lit(51.0));
  std::vector<std::size_t> projection;
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    projection.push_back(c);
  }
  return std::make_shared<ScanNode>("lineitem", schema, pred, projection);
}

/// Per-signature roll-up of every collected query's explain report: how
/// often the signature hosted / attached / ran unshared, and where its
/// pages came from (SPL references vs push copies).
struct ExplainSummary {
  int64_t host = 0;
  int64_t satellite = 0;
  int64_t unshared = 0;
  int64_t pages_shared = 0;
  int64_t pages_copied = 0;
  int64_t run_micros = 0;
};

struct SignatureReport {
  SharingCostModel::SignatureSnapshot skinny;
  SharingCostModel::SignatureSnapshot fat;
  MetricsSnapshot delta;
  double wall_ms = 0;
  int64_t sp_hits = 0;
  std::map<uint64_t, ExplainSummary> explain_by_sig;
};

SignatureReport RunHeterogeneous(Database* db, int rounds, int skinny_width,
                                 int fat_width) {
  MetricsRegistry metrics;
  QPipeOptions options{.sp_mode = SpMode::kAdaptive};
  options.cost_model_min_samples = 2;  // engage the model early in a smoke run
  QPipeEngine engine(db->catalog(), options, &metrics);

  PlanNodeRef skinny = MakeSkinnyScan();
  PlanNodeRef fat = MakeFatScan();

  Stopwatch wall;
  std::mutex explains_mutex;
  std::vector<std::shared_ptr<const QueryExplain>> explains;
  for (int r = 0; r < rounds; ++r) {
    std::vector<QueryHandle> handles;
    for (int i = 0; i < skinny_width; ++i) handles.push_back(engine.Submit(skinny));
    for (int i = 0; i < fat_width; ++i) handles.push_back(engine.Submit(fat));
    // One consumer thread per query (root-level scans batched behind an
    // undrained sibling would convoy the shared circular scan).
    std::vector<std::thread> consumers;
    std::atomic<int> ok{0};
    for (auto& h : handles) {
      consumers.emplace_back([&h, &ok, &explains_mutex, &explains] {
        auto r = h.Collect();
        if (!r.ok()) return;
        ok.fetch_add(1);
        std::lock_guard<std::mutex> lock(explains_mutex);
        explains.push_back(r.value().explain());
      });
    }
    for (auto& c : consumers) c.join();
    SHARING_CHECK(ok.load() == static_cast<int>(handles.size()));
  }

  SignatureReport report;
  report.wall_ms = wall.ElapsedSeconds() * 1e3;
  report.delta = metrics.Snapshot();
  report.sp_hits = engine.scan_stage()->GetStats().sp_hits;
  auto snaps = engine.scan_stage()->CostModelSnapshot();
  SHARING_CHECK(snaps.size() == 2) << "expected exactly two signatures";
  const bool first_is_skinny = snaps[0].mean_pages < snaps[1].mean_pages;
  report.skinny = first_is_skinny ? snaps[0] : snaps[1];
  report.fat = first_is_skinny ? snaps[1] : snaps[0];
  for (const auto& explain : explains) {
    if (explain == nullptr) continue;
    for (const auto& stage : explain->stages) {
      ExplainSummary& sum = report.explain_by_sig[stage.signature];
      switch (stage.role) {
        case QueryExplain::StageRecord::Role::kHost:
          ++sum.host;
          break;
        case QueryExplain::StageRecord::Role::kSatellite:
          ++sum.satellite;
          break;
        case QueryExplain::StageRecord::Role::kUnshared:
          ++sum.unshared;
          break;
      }
      sum.pages_shared += stage.pages_shared();
      sum.pages_copied += stage.pages_copied();
      sum.run_micros += stage.run_micros;
    }
  }
  return report;
}

const char* LastModeOf(const SharingCostModel::SignatureSnapshot& s) {
  // SpModeToString views a NUL-terminated literal, so .data() is a C string.
  return s.has_decision ? SpModeToString(s.last_mode).data() : "-";
}

void PrintSignatureRow(const char* name,
                       const SharingCostModel::SignatureSnapshot& s) {
  std::printf("%-8s %9.0f %8.1f %7.2f %10.1f %8lld %8lld %8lld %7s %6.2f\n",
              name, s.mean_work_micros, s.mean_pages, s.mean_satellites,
              s.mean_retention, static_cast<long long>(s.decided_off),
              static_cast<long long>(s.decided_push),
              static_cast<long long>(s.decided_pull), LastModeOf(s),
              s.last_confidence);
}

void JsonSignatureRow(std::FILE* json, bool* first, const char* name,
                      const SharingCostModel::SignatureSnapshot& s) {
  std::fprintf(json,
               "%s  {\"part\": \"heterogeneous\", \"signature\": \"%s\", "
               "\"mean_work_us\": %.1f, \"mean_pages\": %.1f, "
               "\"mean_satellites\": %.2f, \"mean_retention\": %.1f, "
               "\"decided_off\": %lld, \"decided_push\": %lld, "
               "\"decided_pull\": %lld, \"last_mode\": \"%s\", "
               "\"confidence\": %.3f}",
               *first ? "" : ",\n", name, s.mean_work_micros, s.mean_pages,
               s.mean_satellites, s.mean_retention,
               static_cast<long long>(s.decided_off),
               static_cast<long long>(s.decided_push),
               static_cast<long long>(s.decided_pull), LastModeOf(s),
               s.last_confidence);
  *first = false;
}

}  // namespace

int main() {
  const double sf = ScaleFactor(0.02);
  auto db = MakeMemoryDb();
  std::printf("Generating TPC-H lineitem, SF=%.3f ...\n", sf);
  auto table = tpch::GenerateLineitem(db->catalog(), db->buffer_pool(), sf);
  SHARING_CHECK(table.ok()) << table.status().ToString();

  std::FILE* json = nullptr;
  bool first_row = true;
  if (const char* path = std::getenv("SHARING_BENCH_JSON")) {
    json = std::fopen(path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for JSON output\n", path);
    } else {
      std::fprintf(json, "[\n");
    }
  }

  constexpr int kBursts = 4;
  constexpr int kBurstWidth = 8;
  constexpr int kColdPerBurst = 8;

  PrintHeader("Ablation F1: adaptive SP admission on a hot/cold query mix");
  std::printf("workload: %d bursts x (%d identical hot + %d distinct cold)\n\n",
              kBursts, kBurstWidth, kColdPerBurst);
  std::printf("%-10s %10s %8s %10s %10s %12s %22s\n", "mode", "wall(ms)",
              "sp-hits", "copied", "shared", "retained.hwm",
              "decisions(off/push/pull)");

  for (SpMode mode :
       {SpMode::kOff, SpMode::kPush, SpMode::kPull, SpMode::kAdaptive}) {
    auto r = RunMixedWorkload(db.get(), mode, kBursts, kBurstWidth,
                              kColdPerBurst);
    const int64_t hits = r.scan.sp_hits + r.agg.sp_hits;
    const int64_t off = r.scan.adaptive_off + r.agg.adaptive_off;
    const int64_t push = r.scan.adaptive_push + r.agg.adaptive_push;
    const int64_t pull = r.scan.adaptive_pull + r.agg.adaptive_pull;
    std::printf(
        "%-10s %10.1f %8lld %10lld %10lld %12lld %10lld/%lld/%lld\n",
        std::string(SpModeToString(mode)).c_str(), r.wall_ms,
        static_cast<long long>(hits),
        static_cast<long long>(r.delta[metrics::kSpPagesCopied]),
        static_cast<long long>(r.delta[metrics::kSpPagesShared]),
        static_cast<long long>(
            r.delta[std::string(metrics::kSpPagesRetained) + ".hwm"]),
        static_cast<long long>(off), static_cast<long long>(push),
        static_cast<long long>(pull));
    if (json != nullptr) {
      std::fprintf(
          json,
          "%s  {\"part\": \"hot_cold\", \"mode\": \"%s\", \"wall_ms\": %.1f, "
          "\"sp_hits\": %lld, \"pages_copied\": %lld, \"pages_shared\": %lld, "
          "\"retained_hwm\": %lld, \"decisions_off\": %lld, "
          "\"decisions_push\": %lld, \"decisions_pull\": %lld}",
          first_row ? "" : ",\n", std::string(SpModeToString(mode)).c_str(),
          r.wall_ms, static_cast<long long>(hits),
          static_cast<long long>(r.delta[metrics::kSpPagesCopied]),
          static_cast<long long>(r.delta[metrics::kSpPagesShared]),
          static_cast<long long>(
              r.delta[std::string(metrics::kSpPagesRetained) + ".hwm"]),
          static_cast<long long>(off), static_cast<long long>(push),
          static_cast<long long>(pull));
      first_row = false;
    }
  }

  std::printf(
      "\nExpected shape: static push/pull pay sharing overhead on every cold\n"
      "query; adaptive admits cold signatures unshared (decisions column:\n"
      "off for one-offs) yet still shares the hot bursts, and the retained\n"
      "high-water mark stays bounded because sealed SPLs reclaim pages as\n"
      "readers drain.\n\n");

  constexpr int kRounds = 10;
  constexpr int kSkinnyWidth = 3;
  constexpr int kFatWidth = 5;

  PrintHeader(
      "Ablation F2: per-signature cost model on heterogeneous signatures");
  std::printf(
      "workload: %d rounds x (%d skinny ~2%%-selectivity + %d fat "
      "whole-table scans), one engine, SpMode::kAdaptive on every stage\n"
      "(stage-wide push/pull forced on neither)\n\n",
      kRounds, kSkinnyWidth, kFatWidth);

  auto report = RunHeterogeneous(db.get(), kRounds, kSkinnyWidth, kFatWidth);
  std::printf("%-8s %9s %8s %7s %10s %8s %8s %8s %7s %6s\n", "sig",
              "work(us)", "pages", "sat", "retention", "off", "push", "pull",
              "last", "conf");
  PrintSignatureRow("skinny", report.skinny);
  PrintSignatureRow("fat", report.fat);
  std::printf(
      "\nwall=%.1fms sp-hits=%lld policy: shared=%lld unshared=%lld "
      "flips=%lld\n",
      report.wall_ms, static_cast<long long>(report.sp_hits),
      static_cast<long long>(report.delta[metrics::kPolicyDecisionsShared]),
      static_cast<long long>(report.delta[metrics::kPolicyDecisionsUnshared]),
      static_cast<long long>(report.delta[metrics::kPolicyFlips]));

  // Per-signature explain roll-up: the same divergence, but told by the
  // queries themselves (every collected ResultSet's explain report)
  // rather than the cost model's internal counters.
  const std::pair<const char*, uint64_t> sig_names[] = {
      {"skinny", report.skinny.signature}, {"fat", report.fat.signature}};
  std::printf(
      "\nExplain roll-up (every collected query's sharing report):\n");
  std::printf("%-8s %6s %11s %9s %13s %13s %9s\n", "sig", "hosts",
              "satellites", "unshared", "pages-shared", "pages-copied",
              "run(ms)");
  for (const auto& [name, sig] : sig_names) {
    const ExplainSummary& s = report.explain_by_sig[sig];
    std::printf("%-8s %6lld %11lld %9lld %13lld %13lld %9.1f\n", name,
                static_cast<long long>(s.host),
                static_cast<long long>(s.satellite),
                static_cast<long long>(s.unshared),
                static_cast<long long>(s.pages_shared),
                static_cast<long long>(s.pages_copied),
                static_cast<double>(s.run_micros) / 1e3);
  }

  // The decided_* counts are history-backed model decisions only: the
  // thin-history prior hosts pull for both templates but counts for
  // neither, so a skinny decided_pull is a real model verdict.
  const bool diverged =
      report.fat.decided_pull > 0 && report.skinny.decided_pull == 0;
  std::printf(
      "\nExpected shape: the fat signature's result size and satellite\n"
      "fan-out make pull strictly dominant, while the skinny one stays\n"
      "push/off — one stage, two different admissions%s. The deleted\n"
      "stage-wide threshold heuristic that preceded the cost model\n"
      "blended both histories and handed the two templates the same\n"
      "transport.\n",
      diverged ? " (observed)" : " (NOT observed — investigate)");

  if (json != nullptr) {
    JsonSignatureRow(json, &first_row, "skinny", report.skinny);
    JsonSignatureRow(json, &first_row, "fat", report.fat);
    for (const auto& [name, sig] : sig_names) {
      const ExplainSummary& s = report.explain_by_sig[sig];
      std::fprintf(json,
                   ",\n  {\"part\": \"explain\", \"signature\": \"%s\", "
                   "\"hosts\": %lld, \"satellites\": %lld, "
                   "\"unshared\": %lld, \"pages_shared\": %lld, "
                   "\"pages_copied\": %lld, \"run_ms\": %.1f}",
                   name, static_cast<long long>(s.host),
                   static_cast<long long>(s.satellite),
                   static_cast<long long>(s.unshared),
                   static_cast<long long>(s.pages_shared),
                   static_cast<long long>(s.pages_copied),
                   static_cast<double>(s.run_micros) / 1e3);
    }
    std::fprintf(json,
                 ",\n  {\"part\": \"heterogeneous\", \"summary\": true, "
                 "\"wall_ms\": %.1f, \"sp_hits\": %lld, \"diverged\": %s}",
                 report.wall_ms, static_cast<long long>(report.sp_hits),
                 diverged ? "true" : "false");
    JsonMetricsRow(json, &first_row, report.delta);
    std::fprintf(json, "\n]\n");
    std::fclose(json);
  }
  return diverged ? 0 : 1;
}
