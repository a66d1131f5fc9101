// bench_scenarios: the paper's four experiments (demo §4.3–4.4, Figs.
// 4–5) in one binary, each recorded as curves plus the shapes the paper
// predicts for them, the "rules of thumb" of Psaroudakis, Athanassoulis
// and Ailamaki (PVLDB 2013).
//
//   I    Push vs pull SP: N identical TPC-H Q1 submitted at once, SP at
//        the scan stage only, memory-resident. Then 8 identical Q1 over
//        a FIFO-capacity sweep, the bound behind push-SP's convoy
//        (DESIGN.md #6).
//   II   sp-pull vs gqp as closed-loop clients grow: 1% selectivity,
//        1024 plan variants, disk-resident SSB.
//   III  sp-pull vs gqp across selectivity at 2 clients, memory-resident.
//   IV   gqp vs gqp+sp as the number of distinct plans grows, 16 batched
//        clients, disk-resident.
//
//   bench_scenarios [1|2|3|4 ...]      (default: all four)
//
// Every point runs its modes interleaved inside each of kTrials trials,
// after one unmeasured warm-up per mode. A curve row holds the median
// over trials of throughput, mean response time, process CPU per query
// and the scenario's counters. A shape row is one claim, decided on the
// median of per-trial ratios. Claims about counters are gated: the binary
// exits 1 when one fails. Wall-time claims are recorded ("reproduced":
// true|false), never gated: on a shared host one run decides nothing
// about them. SHARING_BENCH_SF overrides every scenario's scale factor,
// SHARING_BENCH_SECONDS the closed-loop window of II–IV, and
// SHARING_BENCH_JSON=<path> writes the curve, shape and metrics rows.

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace sharing;
using namespace sharing::bench;

namespace {

constexpr int kTrials = 3;

/// One trial of one mode at one point.
struct Sample {
  double qps = 0;
  double mean_ms = 0;
  double cpu_ms = 0;  // process CPU per completed query
  double wall_ms = 0;
  double tscan_sat = 0;
  MetricsSnapshot delta;  // metrics registry delta over the trial

  double Counter(const char* name) const {
    auto it = delta.find(name);
    return it == delta.end() ? 0.0 : static_cast<double>(it->second);
  }
};

using Trials = std::vector<Sample>;
using SampleFn = std::function<double(const Sample&)>;

double Qps(const Sample& s) { return s.qps; }
double WallMs(const Sample& s) { return s.wall_ms; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double MedianOf(const Trials& trials, const SampleFn& f) {
  std::vector<double> v;
  for (const Sample& s : trials) v.push_back(f(s));
  return Median(std::move(v));
}

/// Median over trials of f(a[t]) / f(b[t]). The modes of one trial ran
/// back to back, so the ratio cancels most of the host's drift. An empty
/// denominator gives +inf, which fails every bound below.
double MedianRatio(const Trials& a, const Trials& b, const SampleFn& f) {
  std::vector<double> ratios;
  for (std::size_t t = 0; t < a.size(); ++t) {
    const double den = f(b[t]);
    ratios.push_back(den > 0 ? f(a[t]) / den : HUGE_VAL);
  }
  return Median(std::move(ratios));
}

/// A curve column: its median over trials.
struct Column {
  const char* name;
  SampleFn of;
};

/// qps, mean_ms and cpu_ms, then the scenario's own columns.
std::vector<Column> Columns(std::initializer_list<Column> extra) {
  std::vector<Column> columns = {
      {"qps", Qps},
      {"mean_ms", [](const Sample& s) { return s.mean_ms; }},
      {"cpu_ms", [](const Sample& s) { return s.cpu_ms; }}};
  columns.insert(columns.end(), extra);
  return columns;
}

Column CounterColumn(const char* name, const char* metric) {
  return {name, [metric](const Sample& s) { return s.Counter(metric); }};
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Prints every row as it is decided and keeps its JSON form.
class Report {
 public:
  void Table(const char* title, const char* axis,
             const std::vector<Column>& columns) {
    PrintHeader(title);
    std::printf("%-13s %-14s", axis, "mode");
    for (const Column& c : columns) std::printf(" %13s", c.name);
    std::printf("\n");
  }

  void Curve(int scenario, const char* axis, double x, EngineMode mode,
             const Trials& trials, const std::vector<Column>& columns) {
    const std::string name(EngineModeToString(mode));
    std::printf("%-13g %-14s", x, name.c_str());
    std::string row = Format(
        "{\"part\": \"curve\", \"scenario\": %d, \"axis\": \"%s\", "
        "\"x\": %g, \"mode\": \"%s\"",
        scenario, axis, x, name.c_str());
    for (const Column& c : columns) {
      const double v = MedianOf(trials, c.of);
      std::printf(" %13.2f", v);
      row += Format(", \"%s\": %.4f", c.name, v);
    }
    std::printf("\n");
    rows_.push_back(row + "}");
  }

  void Shape(int scenario, const char* key, const char* claim, double value,
             bool reproduced, bool gated) {
    std::printf("%s: %s: reproduced=%s (value %.3f)%s\n", key, claim,
                reproduced ? "yes" : "no", value, gated ? " [gated]" : "");
    rows_.push_back(Format(
        "{\"part\": \"shape\", \"scenario\": %d, \"key\": \"%s\", "
        "\"claim\": \"%s\", \"value\": %s, \"reproduced\": %s, "
        "\"gated\": %s}",
        scenario, key, claim,
        std::isfinite(value) ? Format("%.4f", value).c_str() : "null",
        reproduced ? "true" : "false", gated ? "true" : "false"));
    if (gated && !reproduced) ++gated_failures_;
  }

  void Metrics(int scenario, const MetricsSnapshot& snapshot) {
    rows_.push_back("{\"part\": \"metrics\", \"scenario\": " +
                    std::to_string(scenario) +
                    ", \"metrics\": " + MetricsJsonObject(snapshot) + "}");
  }

  bool Write(const char* path) const {
    std::FILE* json = std::fopen(path, "w");
    if (json == nullptr) return false;
    std::fprintf(json, "[\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(json, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(json, "]\n");
    return std::fclose(json) == 0;
  }

  int gated_failures() const { return gated_failures_; }

 private:
  std::vector<std::string> rows_;
  int gated_failures_ = 0;
};

/// Runs every mode kTrials times, the modes interleaved inside each
/// trial. Returns one Trials per mode.
std::vector<Trials> Interleaved(
    const std::vector<EngineMode>& modes,
    const std::function<Sample(EngineMode)>& run) {
  std::vector<Trials> out(modes.size());
  for (int t = 0; t < kTrials; ++t) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      out[m].push_back(run(modes[m]));
    }
  }
  return out;
}

/// One scenario's sweep: an unmeasured warm-up per mode at the first
/// point (it loads CJOIN's dimension tables and warms the pool and the
/// stage workers), then every point's interleaved trials, printed and
/// recorded as curve rows. Returns trials[point][mode].
std::vector<std::vector<Trials>> Sweep(
    Report* report, int scenario, const char* title, const char* axis,
    const std::vector<double>& xs, const std::vector<EngineMode>& modes,
    const std::vector<Column>& columns,
    const std::function<Sample(EngineMode, double)>& run) {
  report->Table(title, axis, columns);
  for (EngineMode mode : modes) run(mode, xs.front());
  std::vector<std::vector<Trials>> points;
  for (double x : xs) {
    points.push_back(
        Interleaved(modes, [&](EngineMode mode) { return run(mode, x); }));
    for (std::size_t m = 0; m < modes.size(); ++m) {
      report->Curve(scenario, axis, x, modes[m], points.back()[m], columns);
    }
    std::printf("\n");
  }
  return points;
}

// ---------------------------------------------------------------------------
// Scenario I: push vs pull SP (§4.3, Fig. 4)
// ---------------------------------------------------------------------------

/// One Scenario I trial: `n` identical queries submitted at once.
Sample Simultaneous(SharingEngine* engine, EngineMode mode,
                    const PlanNodeRef& plan, int n) {
  // Paper §4.3: this experiment "evaluates SP for the table scan stage";
  // the aggregation above stays per-query. With SP on at the aggregate
  // stage too, identical Q1 instances would share the final one-page
  // result instead of the scan stream, hiding the push model's copy
  // serialization that the scenario demonstrates.
  engine->SetMode(mode);
  engine->qpipe()->SetSpModeAllStages(SpMode::kOff);
  engine->qpipe()->scan_stage()->SetSpMode(
      mode == EngineMode::kSpPush   ? SpMode::kPush
      : mode == EngineMode::kSpPull ? SpMode::kPull
                                    : SpMode::kOff);

  MetricsRegistry* metrics = engine->database()->metrics();
  const MetricsSnapshot before = metrics->Snapshot();
  CpuTimer cpu;
  Stopwatch wall;
  std::vector<QueryHandle> handles;
  for (int i = 0; i < n; ++i) handles.push_back(engine->Submit(plan));
  double response_ms = 0;
  for (auto& h : handles) {
    auto r = h.Collect();
    SHARING_CHECK(r.ok()) << r.status().ToString();
    response_ms += wall.ElapsedSeconds() * 1e3;
  }
  Sample s;
  s.wall_ms = wall.ElapsedSeconds() * 1e3;
  s.qps = n / (s.wall_ms / 1e3);
  s.mean_ms = response_ms / n;
  s.cpu_ms = cpu.ElapsedSeconds() * 1e3 / n;
  s.delta = MetricsRegistry::Delta(before, metrics->Snapshot());
  return s;
}

void ScenarioI(Report* report) {
  const double sf = ScaleFactor(0.02);
  auto db = MakeMemoryDb();
  std::printf("Generating TPC-H lineitem, SF=%.3f (memory-resident) ...\n",
              sf);
  SHARING_CHECK_OK(
      tpch::GenerateLineitem(db->catalog(), db->buffer_pool(), sf).status());
  const PlanNodeRef q1 = tpch::MakeQ1Plan(90);

  // resp_ms, the workload's response time, is the figure's y-axis.
  const std::vector<Column> columns =
      Columns({{"resp_ms", WallMs},
               CounterColumn("bytes_copied", metrics::kSpBytesCopied),
               CounterColumn("sp_hits", metrics::kSpOpportunities)});
  const std::vector<double> counts = {1, 2, 4, 8, 16, 32};
  std::vector<std::vector<Trials>> curve;
  {
    SharingEngine engine(db.get(), EngineConfig{});
    curve = Sweep(report, 1, "Scenario I: N identical TPC-H Q1, SP at the "
                  "scan stage", "queries", counts,
                  {EngineMode::kQueryCentric, EngineMode::kSpPush,
                   EngineMode::kSpPull},
                  columns, [&](EngineMode mode, double n) {
                    return Simultaneous(&engine, mode, q1, int(n));
                  });
  }

  // fifo_capacity is fixed at construction: one engine per capacity, each
  // warmed once per mode.
  const std::vector<EngineMode> fifo_modes = {EngineMode::kSpPush,
                                              EngineMode::kSpPull};
  std::vector<std::vector<Trials>> fifo;
  report->Table("Scenario I: 8 identical Q1 vs FIFO capacity",
                "fifo_capacity", columns);
  for (std::size_t capacity : {1, 2, 4, 8, 32, 128}) {
    EngineConfig config;
    config.fifo_capacity = capacity;
    SharingEngine engine(db.get(), config);
    for (EngineMode mode : fifo_modes) Simultaneous(&engine, mode, q1, 1);
    fifo.push_back(Interleaved(fifo_modes, [&](EngineMode mode) {
      return Simultaneous(&engine, mode, q1, 8);
    }));
    for (std::size_t m = 0; m < fifo_modes.size(); ++m) {
      report->Curve(1, "fifo_capacity", double(capacity), fifo_modes[m],
                    fifo.back()[m], columns);
    }
  }
  std::printf("\n");
  report->Metrics(1, db->metrics()->Snapshot());

  // curve[point][mode]: modes are query-centric, sp-push, sp-pull.
  double pull_bytes = 0;
  for (const auto& point : curve) {
    for (const Sample& s : point[2]) {
      pull_bytes = std::max(pull_bytes, s.Counter(metrics::kSpBytesCopied));
    }
  }
  report->Shape(1, "scenario1_pull_zero_copy",
                "sp-pull copies 0 bytes at every n", pull_bytes,
                pull_bytes == 0, /*gated=*/true);

  // Push copies the host's stream once per attached satellite: bytes per
  // satellite at every n against its value at n = 2 (counts[1]).
  const auto per_satellite = [](const Sample& s) {
    const double satellites = s.Counter(metrics::kSpOpportunities);
    return satellites > 0 ? s.Counter(metrics::kSpBytesCopied) / satellites
                          : 0.0;
  };
  double worst = 0;
  for (std::size_t i = 2; i < counts.size(); ++i) {
    worst = std::max(
        worst,
        std::abs(MedianRatio(curve[i][1], curve[1][1], per_satellite) - 1));
  }
  report->Shape(1, "scenario1_push_copy_linear",
                "sp-push bytes copied per satellite within 15% of n=2",
                worst, worst <= 0.15, /*gated=*/true);

  const double pull_push = MedianRatio(curve.back()[2], curve.back()[1],
                                       WallMs);
  report->Shape(1, "scenario1_pull_le_push_at_32",
                "sp-pull response time <= sp-push at 32 queries", pull_push,
                pull_push <= 1, /*gated=*/false);
  const double push_deeper = MedianRatio(fifo.back()[0], fifo.front()[0],
                                         WallMs);
  report->Shape(1, "scenario1_push_fifo_deeper_helps",
                "sp-push at fifo_capacity 128 <= at capacity 1", push_deeper,
                push_deeper <= 1, /*gated=*/false);
  const double pull_flat = MedianRatio(fifo.front()[1], fifo.back()[1],
                                       WallMs);
  report->Shape(1, "scenario1_pull_fifo_insensitive",
                "sp-pull at fifo_capacity 1 <= 1.25x at capacity 128",
                pull_flat, pull_flat <= 1.25, /*gated=*/false);
}

// ---------------------------------------------------------------------------
// Scenarios II-IV: closed-loop SSB clients (§4.4, Fig. 5)
// ---------------------------------------------------------------------------

/// SSB for Scenarios II–IV. The disk-resident regime scales the
/// rotational model down so the effects under study, CPU effects of
/// sharing, are reachable with a container's core count: with the full
/// 15kRPM model a fact cycle is so I/O-bound that per-query join CPU
/// never saturates two cores at any reasonable client count.
std::unique_ptr<Database> MakeSsb(double sf, bool disk_resident) {
  DatabaseOptions options;
  options.buffer_pool_frames = disk_resident ? 512 : 65536;
  auto db = std::make_unique<Database>(options);
  if (disk_resident) {
    db->SetDiskResident(/*read_latency_micros=*/55, /*bandwidth_mib=*/15000);
  }
  std::printf("Generating SSB, SF=%.3f (%s) ...\n", sf,
              disk_resident ? "disk-resident" : "memory-resident");
  SHARING_CHECK_OK(ssb::GenerateAll(db->catalog(), db->buffer_pool(), sf));
  return db;
}

/// One closed-loop trial of `mode` over the SHARING_BENCH_SECONDS window.
Sample ClosedLoop(SharingEngine* engine, EngineMode mode,
                  std::size_t clients, bool batched,
                  const PlanFactory& plans) {
  engine->SetMode(mode);
  DriverOptions options;
  options.num_clients = clients;
  options.duration_seconds = WindowSeconds(2.0);
  options.batched = batched;
  MetricsRegistry* metrics = engine->database()->metrics();
  const MetricsSnapshot before = metrics->Snapshot();
  const StageStats scan_before = engine->qpipe()->scan_stage()->GetStats();
  const DriverReport report =
      RunClosedLoop(options, plans, [&](const PlanNodeRef& plan) {
        auto r = engine->Execute(plan);
        return r.ok() ? Status::OK() : r.status();
      });
  Sample s;
  s.qps = report.throughput_qps;
  s.mean_ms = report.mean_response_ms;
  s.cpu_ms = report.completed > 0
                 ? report.cpu_seconds * 1e3 / double(report.completed)
                 : 0;
  s.wall_ms = report.wall_seconds * 1e3;
  s.tscan_sat = ScanSatelliteShare(scan_before,
                                   engine->qpipe()->scan_stage()->GetStats());
  s.delta = MetricsRegistry::Delta(before, metrics->Snapshot());
  return s;
}

/// Scenarios II and III: randomized plans over 1024 variants, so whole
/// plans and join sub-plans rarely repeat, though sp-pull still shares
/// the lineorder and date scans (the tscan_sat column).
PlanFactory RandomizedStars(double selectivity) {
  return [selectivity](std::size_t client, uint64_t iteration) {
    ssb::StarTemplateParams params;
    params.selectivity = selectivity;
    params.num_variants = 1024;
    params.variant = static_cast<int>((client * 131 + iteration * 7) % 1024);
    return ssb::ParameterizedStarPlan(params);
  };
}

const Column kTscanSat = {"tscan_sat",
                          [](const Sample& s) { return s.tscan_sat; }};

void ScenarioII(Report* report) {
  auto db = MakeSsb(ScaleFactor(0.01), /*disk_resident=*/true);
  SharingEngine engine(db.get(), SsbEngineConfig());
  const auto points = Sweep(
      report, 2, "Scenario II: throughput vs clients (sel=1%, "
      "disk-resident)", "clients", {1, 2, 4, 8, 16, 32, 64},
      {EngineMode::kSpPull, EngineMode::kGqp},
      Columns({CounterColumn("admissions", metrics::kCjoinQueriesAdmitted),
               kTscanSat}),
      [&](EngineMode mode, double clients) {
        return ClosedLoop(&engine, mode, std::size_t(clients),
                          /*batched=*/false, RandomizedStars(0.01));
      });
  report->Metrics(2, db->metrics()->Snapshot());

  const double high = MedianRatio(points.back()[1], points.back()[0], Qps);
  report->Shape(2, "scenario2_gqp_ge_sp_pull", "gqp >= sp-pull at 64 clients",
                high, high >= 1, /*gated=*/false);
  const double low = std::min(MedianRatio(points[0][0], points[0][1], Qps),
                              MedianRatio(points[1][0], points[1][1], Qps));
  report->Shape(2, "scenario2_sp_pull_ge_gqp_low",
                "sp-pull >= gqp at 1 and 2 clients", low, low >= 1,
                /*gated=*/false);
}

void ScenarioIII(Report* report) {
  auto db = MakeSsb(ScaleFactor(0.005), /*disk_resident=*/false);
  SharingEngine engine(db.get(), SsbEngineConfig());
  // probe_rows counts rows entering each CJOIN probe level, summed over
  // levels: every fact row enters the first level whether or not any
  // query wants it. 2 clients is low concurrency: at most the cores.
  const auto points = Sweep(
      report, 3, "Scenario III: throughput vs selectivity (2 clients, "
      "memory-resident)", "selectivity", {0.001, 0.01, 0.04, 0.08, 0.16, 0.32},
      {EngineMode::kSpPull, EngineMode::kGqp},
      Columns({CounterColumn("probe_rows", metrics::kCjoinBitmapAndOps),
               kTscanSat}),
      [&](EngineMode mode, double selectivity) {
        return ClosedLoop(&engine, mode, 2, /*batched=*/false,
                          RandomizedStars(selectivity));
      });
  report->Metrics(3, db->metrics()->Snapshot());

  double worst = HUGE_VAL;
  for (const auto& point : points) {
    worst = std::min(worst, MedianRatio(point[0], point[1], Qps));
  }
  report->Shape(3, "scenario3_sp_pull_ge_gqp",
                "sp-pull >= gqp at every selectivity", worst, worst >= 1,
                /*gated=*/false);
}

void ScenarioIV(Report* report) {
  auto db = MakeSsb(ScaleFactor(0.02), /*disk_resident=*/true);
  SharingEngine engine(db.get(), SsbEngineConfig());
  const auto points = Sweep(
      report, 4, "Scenario IV: throughput vs distinct plans (16 batched "
      "clients, disk-resident)", "plans", {1, 2, 4, 8, 16, 32},
      {EngineMode::kGqp, EngineMode::kGqpSp},
      Columns({CounterColumn("admissions", metrics::kCjoinQueriesAdmitted),
               {"adm_ms",
                [](const Sample& s) {
                  return s.Counter(metrics::kCjoinAdmissionMicros) / 1e3;
                }},
               CounterColumn("sp_hits", metrics::kSpOpportunities),
               CounterColumn("epochs", metrics::kCjoinAdmissionEpochs)}),
      [&](EngineMode mode, double x) {
        const int plans = int(x);
        return ClosedLoop(
            &engine, mode, 16, /*batched=*/true,
            [plans](std::size_t client, uint64_t iteration) {
              ssb::StarTemplateParams params;
              params.selectivity = 0.01;
              params.num_variants = plans;
              params.variant =
                  static_cast<int>((client + iteration * 5) % plans);
              // Distinct aggregation tops per client: queries share the
              // star sub-plan (CJOIN's input) but not the whole plan, so
              // sharing must happen at the CJOIN stage (the paper's Fig. 2
              // set-up).
              params.agg_variant = static_cast<int>(client % 8);
              // A four-dimension star makes each admission costlier; SP
              // on the CJOIN stage skips admission for a duplicate
              // sub-plan, along with its emission and the operators above.
              params.join_part = true;
              return ssb::ParameterizedStarPlan(params);
            });
      });
  report->Metrics(4, db->metrics()->Snapshot());

  const auto admitted = [](const Sample& s) {
    return s.Counter(metrics::kCjoinQueriesAdmitted);
  };
  const double admissions = MedianRatio(points[0][1], points[0][0], admitted);
  report->Shape(4, "scenario4_fewer_admissions_at_1",
                "gqp+sp admits fewer queries than gqp at 1 plan", admissions,
                admissions < 1, /*gated=*/true);
  // Batched clients arrive together, so one driver pass sets the bits of
  // several waiting queries.
  double passes = 0;
  for (const auto& point : points) {
    passes = std::max(passes, MedianOf(point[0], [&](const Sample& s) {
      const double n = admitted(s);
      return n > 0 ? s.Counter(metrics::kCjoinAdmissionEpochs) / n
                   : HUGE_VAL;
    }));
  }
  report->Shape(4, "scenario4_admission_batched",
                "gqp makes fewer than 1 admission pass per admitted query",
                passes, passes < 1, /*gated=*/true);
  const double qps = MedianRatio(points[0][1], points[0][0], Qps);
  report->Shape(4, "scenario4_gqp_sp_gt_gqp_at_1",
                "gqp+sp throughput > gqp at 1 plan", qps, qps > 1,
                /*gated=*/false);
}

}  // namespace

int main(int argc, char** argv) {
  using ScenarioFn = void (*)(Report*);
  const ScenarioFn scenarios[] = {ScenarioI, ScenarioII, ScenarioIII,
                                  ScenarioIV};
  std::vector<int> chosen;
  for (int i = 1; i < argc; ++i) {
    const int s = std::atoi(argv[i]);
    if (s < 1 || s > 4) {
      std::fprintf(stderr, "usage: %s [1|2|3|4 ...]\n", argv[0]);
      return 2;
    }
    chosen.push_back(s);
  }
  if (chosen.empty()) chosen = {1, 2, 3, 4};

  Report report;
  for (int s : chosen) {
    scenarios[s - 1](&report);
    std::printf("\n");
  }
  if (const char* path = std::getenv("SHARING_BENCH_JSON")) {
    if (!report.Write(path)) {
      std::fprintf(stderr, "cannot write JSON to %s\n", path);
      return 2;
    }
  }
  if (report.gated_failures() > 0) {
    std::fprintf(stderr, "bench_scenarios: %d gated shape row(s) failed\n",
                 report.gated_failures());
    return 1;
  }
  return 0;
}
