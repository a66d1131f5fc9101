// bench_e2e: the end-to-end benchmark of the sharing engine.
//
// One process runs one workload. Load comes from up to four driver
// threads (never more than the host's cores); each keeps K queries in
// flight — Submit, Collect the oldest, Submit the next — so the engine
// sees a closed loop of (threads x K) virtual clients. A run is:
//
//   1. set-up (data generation + engine construction), timed kSetupReps
//      times on the least contended CPU; the median is `setup_s`;
//   2. an untimed warm-up that fills the buffer pool, grows the stage
//      pools and gives the admission cost model history;
//   3. the measured window (`--seconds`), tracing off. With `--trace 1`
//      the window is split: the first half stays untraced (counter and
//      explain metrics, and the untraced throughput), the second half is
//      traced and folded into per-span self times;
//   4. output verification of every 64th result against the
//      ReferenceExecutor, outside every timed metric.
//
// Every number is measured from outside the engine: wall and CPU time
// around public calls, MetricsRegistry snapshot deltas over the window,
// each result's QueryExplain, and the Chrome trace export.
//
// Usage:
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spill-dir <dir>]
//   bench_e2e --check-fold     (self-test of the self-time fold)
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it, prefixed "detail ", carries sample
// counts, p99 and the host fingerprint for perfbench/run_benchmark.sh.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/sharing_engine.h"
#include "exec/explain.h"
#include "exec/reference_executor.h"
#include "storage/page.h"
#include "workload/ssb.h"
#include "workload/tpch.h"

namespace sharing::perfbench {
namespace {

constexpr std::size_t kMaxDriverThreads = 4;
constexpr int64_t kWarmupMicros = 3'000'000;
/// Set-up is single-threaded and takes tens of milliseconds, and on a
/// shared host one vCPU can run ~1.5x slower than another for tens of
/// seconds at a time; setup_s is the median of this many set-ups on the
/// least contended CPU.
constexpr int kSetupReps = 5;
constexpr uint64_t kVerifyEvery = 64;
constexpr int64_t kBucketMicros = 1'000'000;
/// Per-thread trace ring (events) and how often the rings are exported
/// while tracing. The engine runs up to ~200 threads, so rings stay small
/// (~0.3 MiB each); the busiest (I/O) threads record ~20k events/s, so
/// exports drain them at about half full.
constexpr std::size_t kTraceBufferEvents = 2048;
constexpr int64_t kTraceExportMicros = 50'000;
/// Longer than any span runs: spans open when tracing starts or stops,
/// or when a ring wraps, are lost, so the fold keeps this far away.
constexpr int64_t kTraceMarginMicros = 300'000;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  /// Queries in flight across all driver threads.
  std::size_t in_flight;
  std::function<std::unique_ptr<Database>()> make_db;
  EngineConfig config;
  /// Stage SP modes applied after construction (null: the mode's own).
  std::function<void(SharingEngine*)> tune;
  std::function<PlanNodeRef(Rng*)> next_plan;
};

/// TPC-H lineitem, memory-resident: the frame budget is twice the data's
/// page count, so after the warm-up every fetch is a hit.
std::unique_ptr<Database> MakeLineitemDb(double sf) {
  const Schema schema = tpch::LineitemSchema();
  const auto rows = static_cast<std::size_t>(6'000'000 * sf);
  const std::size_t per_page = page_layout::Capacity(
      kPageBytes, static_cast<uint32_t>(schema.row_width()));
  DatabaseOptions options;
  options.buffer_pool_frames = 2 * ((rows + per_page - 1) / per_page);
  auto db = std::make_unique<Database>(options);
  auto table = tpch::GenerateLineitem(db->catalog(), db->buffer_pool(), sf);
  SHARING_CHECK(table.ok()) << table.status().ToString();
  return db;
}

/// SSB, disk-resident: 512 frames against a working set several times
/// larger, charged the Scenario II latency model (55 us per page plus
/// transfer at 15000 MiB/s).
std::unique_ptr<Database> MakeSsbDiskDb(double sf) {
  DatabaseOptions options;
  options.buffer_pool_frames = 512;
  auto db = std::make_unique<Database>(options);
  SHARING_CHECK_OK(ssb::GenerateAll(db->catalog(), db->buffer_pool(), sf));
  db->SetDiskResident(/*read_latency_micros=*/55, /*bandwidth_mib=*/15000);
  return db;
}

EngineConfig SsbCjoinConfig(EngineMode mode) {
  EngineConfig config;
  config.mode = mode;
  config.fact_table = "lineorder";
  config.cjoin_levels = ssb::PipelineLevels();
  config.cjoin.max_queries = 64;
  return config;
}

/// One of 1024 star-template variants at 1% per-dimension selectivity.
PlanNodeRef DistinctStarPlan(Rng* rng) {
  ssb::StarTemplateParams params;
  params.selectivity = 0.01;
  params.num_variants = 1024;
  params.variant = static_cast<int>(rng->UniformInt(0, 1023));
  return ssb::ParameterizedStarPlan(params);
}

/// Half hot (4 join sub-plans x 8 aggregation tops), half cold (1020
/// variants that never repeat within the admission window), all
/// 4-dimension stars.
PlanNodeRef HotColdStarPlan(Rng* rng) {
  ssb::StarTemplateParams params;
  params.selectivity = 0.01;
  params.num_variants = 1024;
  params.join_part = true;
  if (rng->Bernoulli(0.5)) {
    params.variant = static_cast<int>(rng->UniformInt(0, 3));
    params.agg_variant = static_cast<int>(rng->UniformInt(0, 7));
  } else {
    params.variant = static_cast<int>(rng->UniformInt(4, 1023));
  }
  return ssb::ParameterizedStarPlan(params);
}

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;

  // Scenario I's regime (paper §4.3): identical Q1s, SP pull on the
  // scan stage only, so the SPL fan-out and the per-query aggregates do
  // nearly all the work — no disk, no join, no CJOIN.
  Workload q1;
  q1.name = "q1-shared-scan";
  q1.in_flight = 16;
  q1.make_db = [] { return MakeLineitemDb(0.02); };
  q1.config.mode = EngineMode::kQueryCentric;
  q1.tune = [](SharingEngine* engine) {
    engine->qpipe()->scan_stage()->SetSpMode(SpMode::kPull);
  };
  const PlanNodeRef q1_plan = tpch::MakeQ1Plan(90);
  q1.next_plan = [q1_plan](Rng*) { return q1_plan; };
  all.push_back(std::move(q1));

  // Scenario II's regime at one concurrency, query-centric side:
  // distinct stars, so hash joins, aggregates and buffer-pool misses
  // dominate and only the lineorder/date scans share.
  Workload sp;
  sp.name = "ssb-distinct-sp";
  sp.in_flight = 32;
  sp.make_db = [] { return MakeSsbDiskDb(0.01); };
  sp.config.mode = EngineMode::kSpPull;
  sp.next_plan = DistinctStarPlan;
  all.push_back(sp);

  // The same data and query stream through the CJOIN global query plan.
  Workload gqp = sp;
  gqp.name = "ssb-distinct-gqp";
  gqp.config = SsbCjoinConfig(EngineMode::kGqp);
  all.push_back(std::move(gqp));

  // Adaptive admission over a hot/cold mix with a small SP memory
  // budget: every admission path runs, and pull retention spills.
  Workload hotcold;
  hotcold.name = "ssb-hotcold-adaptive";
  hotcold.in_flight = 32;
  hotcold.make_db = [] { return MakeSsbDiskDb(0.02); };
  hotcold.config.mode = EngineMode::kSpAdaptive;
  hotcold.config.sp_memory_budget = 64;
  hotcold.next_plan = HotColdStarPlan;
  all.push_back(std::move(hotcold));
  return all;
}

/// One set-up: the loaded database and the engine over it (declared in
/// that order, so the engine is torn down first).
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<SharingEngine> engine;
};

Instance SetUp(const Workload& workload, const std::string& spill_path) {
  EngineConfig config = workload.config;
  config.sp_spill_path = spill_path;
  std::remove(spill_path.c_str());  // a spill store never reuses a file
  Instance instance;
  instance.db = workload.make_db();
  instance.engine =
      std::make_unique<SharingEngine>(instance.db.get(), std::move(config));
  if (workload.tune) workload.tune(instance.engine.get());
  return instance;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: leave threads unpinned
  return cpus;
}

/// Pins the calling thread to `cpu` (best effort; -1 = no-op).
void PinToCpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// The closed-loop driver
// ---------------------------------------------------------------------------

struct Sample {
  int64_t submit_us = 0;  // Submit called (trace timebase)
  int64_t done_us = 0;    // Collect returned
  int64_t submit_cost_us = 0;
  bool ok = false;
  std::shared_ptr<const QueryExplain> explain;
};

struct KeptResult {
  PlanNodeRef plan;
  ResultSet result;
};

struct ThreadLog {
  std::vector<Sample> samples;  // completions after the warm-up
  std::vector<KeptResult> kept;
};

struct InFlight {
  PlanNodeRef plan;
  QueryHandle handle;
  int64_t submit_us = 0;
  int64_t submit_cost_us = 0;
};

void DriveClosedLoop(SharingEngine* engine, const Workload& workload,
                     uint64_t seed, std::size_t thread, std::size_t depth,
                     int64_t log_from_us, int64_t stop_us, ThreadLog* log) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + thread + 1);
  std::deque<InFlight> pending;
  uint64_t logged_ok = 0;
  auto submit = [&] {
    InFlight q;
    q.plan = workload.next_plan(&rng);
    q.submit_us = Trace::NowMicros();
    q.handle = engine->Submit(q.plan);
    q.submit_cost_us = Trace::NowMicros() - q.submit_us;
    Trace::RecordComplete("bench", "bench.submit", q.submit_us,
                          q.submit_cost_us, q.handle.context()->query_id(),
                          0);
    pending.push_back(std::move(q));
  };
  while (Trace::NowMicros() < stop_us) {
    while (pending.size() < depth) submit();
    InFlight q = std::move(pending.front());
    pending.pop_front();
    const int64_t collect_us = Trace::NowMicros();
    auto result = q.handle.Collect();
    const int64_t done_us = Trace::NowMicros();
    Trace::RecordComplete("bench", "bench.collect", collect_us,
                          done_us - collect_us,
                          q.handle.context()->query_id(), 0);
    if (done_us < log_from_us) continue;
    Sample s;
    s.submit_us = q.submit_us;
    s.done_us = done_us;
    s.submit_cost_us = q.submit_cost_us;
    s.ok = result.ok();
    if (s.ok) {
      s.explain = result.value().explain();
      if (++logged_ok % kVerifyEvery == 0) {
        log->kept.push_back({q.plan, std::move(result).value()});
      }
    }
    log->samples.push_back(std::move(s));
  }
  // Drain: the in-flight tail completes outside every window.
  for (InFlight& q : pending) (void)q.handle.Collect();
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an ascending vector.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(q * sorted.size());
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Total steal ticks from /proc/stat's aggregate line; -1 if unreadable.
int64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<int64_t>(v[7]) : -1;
}

void SleepUntilMicros(int64_t t_us) {
  const int64_t now = Trace::NowMicros();
  if (t_us > now) {
    std::this_thread::sleep_for(std::chrono::microseconds(t_us - now));
  }
}

/// A bucket boundary: when it was due, when the sampler actually woke,
/// and the process CPU time then.
struct Mark {
  int64_t due_us = 0;
  int64_t at_us = 0;
  double cpu_s = 0;
};

/// One measured sub-window: completions, bucketed throughput and CPU.
struct WindowStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  double qps = 0;               // median over buckets
  double cpu_ms_per_query = 0;  // median over buckets
  std::vector<double> latency_ms;  // ascending
  std::vector<double> submit_us;   // ascending
};

/// Summarizes the completions in [from, to). Throughput and CPU per
/// query are medians over the buckets between consecutive `marks` due
/// inside the window, so a short stall from a co-tenant moves one bucket,
/// not the result.
WindowStats Summarize(const std::vector<ThreadLog>& logs,
                      const std::vector<Mark>& marks, int64_t from_us,
                      int64_t to_us) {
  WindowStats w;
  for (const ThreadLog& log : logs) {
    for (const Sample& s : log.samples) {
      if (s.done_us < from_us || s.done_us >= to_us) continue;
      ++w.attempted;
      if (!s.ok) {
        ++w.failed;
        continue;
      }
      ++w.completed;
      w.latency_ms.push_back(static_cast<double>(s.done_us - s.submit_us) /
                             1e3);
      w.submit_us.push_back(static_cast<double>(s.submit_cost_us));
    }
  }
  std::sort(w.latency_ms.begin(), w.latency_ms.end());
  std::sort(w.submit_us.begin(), w.submit_us.end());

  std::vector<double> qps, cpu_ms;
  for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
    const Mark& m0 = marks[i];
    const Mark& m1 = marks[i + 1];
    if (m0.due_us < from_us || m1.due_us > to_us || m1.at_us <= m0.at_us) {
      continue;
    }
    int64_t n = 0;
    for (const ThreadLog& log : logs) {
      for (const Sample& s : log.samples) {
        n += s.ok && s.done_us >= m0.at_us && s.done_us < m1.at_us;
      }
    }
    qps.push_back(static_cast<double>(n) * 1e6 /
                  static_cast<double>(m1.at_us - m0.at_us));
    if (n > 0) {
      cpu_ms.push_back((m1.cpu_s - m0.cpu_s) * 1e3 / static_cast<double>(n));
    }
  }
  w.qps = Median(qps);
  w.cpu_ms_per_query = Median(cpu_ms);
  return w;
}

/// Explain roll-up over the completions of one window.
struct ExplainTally {
  int64_t queries = 0;
  std::map<std::string, int64_t> run_us;      // by stage
  std::map<std::string, int64_t> records;     // by stage
  std::map<std::string, int64_t> satellites;  // by stage
  std::map<std::string, int64_t> decided_by;
  int64_t all_records = 0;
};

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

ExplainTally TallyExplains(const std::vector<ThreadLog>& logs, int64_t from_us,
                           int64_t to_us) {
  ExplainTally t;
  for (const ThreadLog& log : logs) {
    for (const Sample& s : log.samples) {
      if (!s.ok || s.explain == nullptr || s.done_us < from_us ||
          s.done_us >= to_us) {
        continue;
      }
      ++t.queries;
      for (const auto& rec : s.explain->stages) {
        const std::string stage = Lower(rec.stage);
        t.run_us[stage] += rec.run_micros;
        ++t.records[stage];
        if (rec.role == QueryExplain::StageRecord::Role::kSatellite) {
          ++t.satellites[stage];
        }
        ++t.decided_by[rec.decided_by];
        ++t.all_records;
      }
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Trace fold: per-span-name self time
// ---------------------------------------------------------------------------

/// The spans of the traced half, merged from Trace exports taken every
/// kTraceExportMicros while tracing runs. The engine can run ~200
/// threads, each with its own ring, so rings stay small and no single
/// export covers the half; successive exports overlap and are
/// deduplicated.
///
/// Spans longer than `margin_us` are assumed not to occur: a span is
/// recorded only when it ends, and only if tracing was on when it began,
/// so history is trusted from one margin after tracing starts to one
/// margin before it stops, and around every gap a wrapped ring left.
class SpanLog {
 public:
  using Interval = std::pair<int64_t, int64_t>;  // [first, second)

  SpanLog(std::size_t ring_capacity, int64_t margin_us)
      : ring_capacity_(ring_capacity), margin_us_(margin_us) {}

  /// Merges one Trace::ExportChromeJson(since_us) string, `since_us`
  /// being the previous export's time. Its format is fixed by
  /// common/trace.cc, so a field scan is enough. A thread whose export
  /// fills its whole ring may have overwritten events that ended between
  /// `since_us` and its oldest exported event: that stretch, and one
  /// margin before it, become a gap.
  void Add(const std::string& json, int64_t since_us) {
    const std::string kName = "{\"name\":\"";
    auto number_after = [&json](const char* key, std::size_t from,
                                std::size_t to) -> int64_t {
      const std::size_t at = json.find(key, from);
      if (at == std::string::npos || at >= to) return -1;
      return std::strtoll(json.c_str() + at + std::strlen(key), nullptr, 10);
    };
    // Per thread: events exported and the oldest event end among them.
    std::map<int64_t, std::pair<std::size_t, int64_t>> rings;
    std::size_t pos = json.find(kName);
    while (pos != std::string::npos) {
      const std::size_t name_begin = pos + kName.size();
      const std::size_t name_end = json.find('"', name_begin);
      if (name_end == std::string::npos) break;
      std::size_t next = json.find(kName, name_end);
      if (next == std::string::npos) next = json.size();
      const int64_t tid = number_after("\"tid\":", name_end, next);
      const int64_t ts = number_after("\"ts\":", name_end, next);
      const int64_t dur = number_after("\"dur\":", name_end, next);
      pos = next;
      if (tid < 0 || ts < 0) continue;
      auto& [events, oldest_end] =
          rings.try_emplace(tid, 0, std::numeric_limits<int64_t>::max())
              .first->second;
      ++events;
      oldest_end = std::min(oldest_end, ts + std::max<int64_t>(dur, 0));
      if (dur < 0) continue;  // an instant
      spans_.push_back(
          {static_cast<uint32_t>(tid),
           NameId(json.substr(name_begin, name_end - name_begin)), ts, dur});
    }
    for (const auto& [tid, ring] : rings) {
      // One slot may be skipped as mid-write, so a full ring can show
      // one event short.
      if (ring.first + 1 >= ring_capacity_) {
        gaps_.push_back({since_us - margin_us_, ring.second});
      }
    }
  }

  /// The parts of tracing's [on_us, off_us) whose history is complete:
  /// one margin in from each end, less every gap.
  std::vector<Interval> CompleteIntervals(int64_t on_us, int64_t off_us) const {
    std::vector<Interval> out = {{on_us + margin_us_, off_us - margin_us_}};
    for (const Interval& gap : gaps_) {
      std::vector<Interval> kept;
      for (const Interval& in : out) {
        if (gap.first > in.first) {
          kept.push_back({in.first, std::min(in.second, gap.first)});
        }
        if (gap.second < in.second) {
          kept.push_back({std::max(in.first, gap.second), in.second});
        }
      }
      out.clear();
      for (const Interval& in : kept) {
        if (in.second > in.first) out.push_back(in);
      }
    }
    return out;
  }

  /// Self time per span name over `intervals`: each span clipped to an
  /// interval, minus the clipped part of it that the same thread's spans
  /// lying wholly inside it cover.
  std::map<std::string, int64_t> FoldSelfMicros(
      const std::vector<Interval>& intervals) {
    auto key = [](const Span& s) {
      // Enclosing spans sort before what they enclose (longer first).
      return std::make_tuple(s.tid, s.ts, -s.dur, s.name);
    };
    std::sort(spans_.begin(), spans_.end(),
              [&](const Span& a, const Span& b) { return key(a) < key(b); });
    spans_.erase(std::unique(spans_.begin(), spans_.end(),
                             [&](const Span& a, const Span& b) {
                               return key(a) == key(b);
                             }),
                 spans_.end());
    std::vector<int64_t> self(names_.size(), 0);
    for (const auto& [from_us, to_us] : intervals) {
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& parent = spans_[i];
        const int64_t end = parent.ts + parent.dur;
        const int64_t lo = std::max(parent.ts, from_us);
        const int64_t hi = std::min(end, to_us);
        if (hi <= lo) continue;
        // Merge the clipped child intervals (ascending starts) into runs.
        int64_t covered = 0, run_begin = lo, run_end = lo;
        for (std::size_t j = i + 1; j < spans_.size() &&
                                    spans_[j].tid == parent.tid &&
                                    spans_[j].ts < end;
             ++j) {
          const Span& child = spans_[j];
          if (child.ts + child.dur > end) continue;  // crosses parent's end
          const int64_t c_lo = std::max(child.ts, from_us);
          const int64_t c_hi = std::min(child.ts + child.dur, to_us);
          if (c_hi <= c_lo) continue;
          if (c_lo > run_end) {
            covered += run_end - run_begin;
            run_begin = c_lo;
            run_end = c_hi;
          } else {
            run_end = std::max(run_end, c_hi);
          }
        }
        covered += run_end - run_begin;
        self[parent.name] += (hi - lo) - covered;
      }
    }
    std::map<std::string, int64_t> out;
    for (std::size_t n = 0; n < names_.size(); ++n) out[names_[n]] = self[n];
    return out;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    uint32_t tid = 0;
    uint32_t name = 0;  // index into names_
    int64_t ts = 0;
    int64_t dur = 0;
  };

  uint32_t NameId(const std::string& name) {
    auto [it, inserted] =
        ids_.try_emplace(name, static_cast<uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }

  const std::size_t ring_capacity_;
  const int64_t margin_us_;
  std::vector<Interval> gaps_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
};

/// Renders spans ({tid, name, ts, dur}; dur < 0 = an instant) in the
/// Trace::ExportChromeJson format.
std::string ChromeJson(
    const std::vector<std::tuple<int, const char*, int64_t, int64_t>>& events) {
  std::string out = "{\"traceEvents\":[";
  const char* separator = "";
  char buf[256];
  for (const auto& [tid, name, ts, dur] : events) {
    if (dur < 0) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"sharing\",\"ph\":\"i\","
                    "\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%" PRId64
                    ",\"args\":{}}",
                    separator, name, tid, ts);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"stage\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%" PRId64 ",\"dur\":%" PRId64
                    ",\"args\":{\"query_id\":7,\"signature\":\"0xabc\"}}",
                    separator, name, tid, ts, dur);
    }
    out += buf;
    separator = ",";
  }
  return out + "]}";
}

/// --check-fold: pins the fold arithmetic on a fixed span set.
int CheckFold() {
  bool ok = true;
  auto expect = [&ok](const char* what, int64_t got, int64_t want) {
    std::printf("%-28s got %4" PRId64 " want %4" PRId64 "%s\n", what, got,
                want, got == want ? "" : "  MISMATCH");
    ok = ok && got == want;
  };
  SpanLog log(/*ring_capacity=*/100, /*margin_us=*/0);
  // tid 1: A [0,100) holds B [10,30) and C [20,50) (overlapping: union
  // 40) and D [60,70); E [90,120) crosses A's end, so it is no child.
  // tid 2: B [15,45) holds D [20,25); tid 1's A is not its parent.
  log.Add(ChromeJson({{1, "A", 0, 100},
                      {1, "B", 10, 20},
                      {1, "C", 20, 30},
                      {1, "D", 60, 10},
                      {2, "B", 15, 30},
                      {2, "D", 20, 5},
                      {2, "spl.attach", 22, -1}}),
          0);
  // A later export overlaps the first (C again) and adds E.
  log.Add(ChromeJson({{1, "C", 20, 30}, {1, "E", 90, 30}}), 50);
  auto whole = log.FoldSelfMicros({{0, 200}});
  expect("spans after dedup", static_cast<int64_t>(log.size()), 7);
  expect("[0,200) A", whole["A"], 100 - 40 - 10);
  expect("[0,200) B", whole["B"], 20 + (30 - 5));
  expect("[0,200) C", whole["C"], 30);
  expect("[0,200) D", whole["D"], 10 + 5);
  expect("[0,200) E", whole["E"], 30);
  // A window starting inside spans clips them: A [25,100) less [25,50)
  // and [60,70); tid 2's D [20,25) falls out.
  auto late = log.FoldSelfMicros({{25, 200}});
  expect("[25,200) A", late["A"], 75 - 25 - 10);
  expect("[25,200) B", late["B"], 5 + 20);
  expect("[25,200) C", late["C"], 25);
  expect("[25,200) D", late["D"], 10);
  auto early = log.FoldSelfMicros({{0, 80}});
  expect("[0,80) A", early["A"], 80 - 40 - 10);
  expect("[0,80) E", early["E"], 0);
  // Clipped self time adds up across a split window.
  auto split = log.FoldSelfMicros({{0, 25}, {25, 200}});
  expect("[0,25)+[25,200) A", split["A"], whole["A"]);
  expect("[0,25)+[25,200) B", split["B"], whole["B"]);
  // Margins (5) trim both ends of [0,100). A ring of 4 filled by events
  // newer than the previous export (at 50) may have lost events ending
  // in [50,60), its oldest exported end: [50 - 5, 60) is a gap.
  SpanLog wrapped(/*ring_capacity=*/4, /*margin_us=*/5);
  wrapped.Add(ChromeJson({{1, "A", 0, 10}}), 0);
  wrapped.Add(ChromeJson({{1, "A", 55, 5},
                          {1, "A", 60, 5},
                          {1, "A", 65, 5},
                          {1, "A", 70, 5}}),
              50);
  const auto complete = wrapped.CompleteIntervals(0, 100);
  expect("complete intervals", static_cast<int64_t>(complete.size()), 2);
  if (complete.size() == 2) {
    expect("complete[0] from", complete[0].first, 5);
    expect("complete[0] to", complete[0].second, 45);
    expect("complete[1] from", complete[1].first, 60);
    expect("complete[1] to", complete[1].second, 95);
  }
  std::printf("check-fold %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Output verification
// ---------------------------------------------------------------------------

/// Compares every kept result with the ReferenceExecutor's, computing one
/// reference per distinct plan signature (in parallel). Returns the
/// number of mismatches.
int64_t VerifyResults(Database* db, const std::vector<ThreadLog>& logs,
                      std::size_t threads, int64_t* checked) {
  std::map<uint64_t, PlanNodeRef> plans;
  *checked = 0;
  for (const ThreadLog& log : logs) {
    for (const KeptResult& k : log.kept) {
      plans.emplace(k.plan->Signature(), k.plan);
      ++*checked;
    }
  }
  std::vector<std::pair<uint64_t, PlanNodeRef>> todo(plans.begin(),
                                                     plans.end());
  std::map<uint64_t, std::vector<std::string>> reference;
  std::mutex mutex;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      ReferenceExecutor executor(db->catalog());
      for (std::size_t i = next++; i < todo.size(); i = next++) {
        auto r = executor.Execute(*todo[i].second);
        SHARING_CHECK(r.ok()) << "reference: " << r.status().ToString();
        auto rows = r.value().CanonicalRows();
        std::lock_guard<std::mutex> lock(mutex);
        reference[todo[i].first] = std::move(rows);
      }
    });
  }
  for (auto& w : workers) w.join();

  int64_t mismatches = 0;
  for (const ThreadLog& log : logs) {
    for (const KeptResult& k : log.kept) {
      if (k.result.CanonicalRows() != reference.at(k.plan->Signature())) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int64_t seconds = 20;
  bool trace = false;
  std::string spill_dir = ".";
  bool check_fold = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--check-fold") {
      args->check_fold = true;
      continue;
    }
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtoll(value.c_str(), &end, 10);
      if (args->seconds < 1 || args->seconds > 600) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--spill-dir") {
      args->spill_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->check_fold || !args->workload.empty();
}

int Run(const Args& args) {
  std::vector<Workload> all = AllWorkloads();
  auto found = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return args.workload == w.name;
  });
  if (found == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& workload = *found;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min(kMaxDriverThreads, hw);
  const std::size_t depth = std::max<std::size_t>(1, workload.in_flight / threads);
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%" PRId64
              " trace=%d threads=%zu in_flight=%zu\n",
              workload.name, args.seed, args.seconds, args.trace ? 1 : 0,
              threads, threads * depth);
  std::fflush(stdout);

  // 1. Set-up. Timed set-ups run on a thread pinned to one CPU and are
  // torn down untimed. After one untimed set-up warms the allocator, one
  // per allowed CPU finds the least contended core; kSetupReps more run
  // there and their median is setup_s. The instance that runs the
  // workload is built last, unpinned (engine threads inherit their
  // creator's CPU mask).
  auto spill_path = [&](const std::string& tag) {
    return args.spill_dir + "/perfbench-spill-" + std::to_string(getpid()) +
           "-" + tag + ".bin";
  };
  int setups = 0;
  auto timed_setup = [&](int cpu) {
    double seconds = 0;
    std::thread([&] {
      PinToCpu(cpu);
      Stopwatch watch;
      Instance timed = SetUp(workload, spill_path(std::to_string(setups++)));
      seconds = watch.ElapsedSeconds();
    }).join();
    return seconds;
  };
  const std::vector<int> cpus = AllowedCpus();
  timed_setup(-1);
  int fastest = cpus[0];
  double fastest_s = std::numeric_limits<double>::max();
  for (int cpu : cpus) {
    const double seconds = timed_setup(cpu);
    if (seconds < fastest_s) {
      fastest_s = seconds;
      fastest = cpu;
    }
  }
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(timed_setup(fastest));
  }
  // The timed set-ups freed their heap in another thread's malloc arena;
  // hand it back, so peak_rss_mb measures one instance, not two.
  malloc_trim(0);
  Instance instance = SetUp(workload, spill_path("run"));
  Database* db = instance.db.get();
  SharingEngine* engine = instance.engine.get();

  // 2-3. Warm-up, then the measured window (split when tracing).
  const int64_t window_us = args.seconds * 1'000'000;
  const int64_t start_us = Trace::NowMicros();
  const int64_t warm_end_us = start_us + kWarmupMicros;
  const int64_t end_us = warm_end_us + window_us;
  const int64_t untraced_end_us =
      args.trace ? warm_end_us + window_us / 2 : end_us;
  double load1 = -1;
  getloadavg(&load1, 1);

  std::vector<ThreadLog> logs(threads);
  std::vector<std::thread> drivers;
  for (std::size_t t = 0; t < threads; ++t) {
    drivers.emplace_back(DriveClosedLoop, engine, std::cref(workload),
                         args.seed, t, depth, warm_end_us, end_us, &logs[t]);
  }

  SleepUntilMicros(warm_end_us);
  const MetricsSnapshot before = db->metrics()->Snapshot();
  const int64_t steal_before = StealTicks();
  std::vector<int64_t> boundaries = {untraced_end_us, end_us};
  for (int64_t b = warm_end_us + kBucketMicros; b < end_us; b += kBucketMicros) {
    boundaries.push_back(b);
  }
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  std::vector<Mark> cpu_marks = {
      {warm_end_us, Trace::NowMicros(), ProcessCpuSeconds()}};
  MetricsSnapshot after;
  SpanLog spans(kTraceBufferEvents, kTraceMarginMicros);
  int64_t last_export_us = untraced_end_us;
  auto export_spans = [&] {
    const int64_t now = Trace::NowMicros();
    spans.Add(Trace::ExportChromeJson(last_export_us), last_export_us);
    last_export_us = now;
  };
  for (int64_t b : boundaries) {
    for (int64_t t = Trace::NowMicros() + kTraceExportMicros;
         Trace::enabled() && t < b; t += kTraceExportMicros) {
      SleepUntilMicros(t);
      export_spans();
    }
    SleepUntilMicros(b);
    cpu_marks.push_back({b, Trace::NowMicros(), ProcessCpuSeconds()});
    if (b == untraced_end_us) {
      after = db->metrics()->Snapshot();
      if (args.trace) Trace::Enable(kTraceBufferEvents);
    }
  }
  if (Trace::enabled()) {
    Trace::Disable();
    export_spans();
  }
  const int64_t steal_after = StealTicks();
  for (auto& d : drivers) d.join();
  const double peak_rss_mb = PeakRssMb();

  const WindowStats window =
      Summarize(logs, cpu_marks, warm_end_us, untraced_end_us);
  const MetricsSnapshot delta = MetricsRegistry::Delta(before, after);
  const ExplainTally tally = TallyExplains(logs, warm_end_us, untraced_end_us);
  auto counter = [&delta](const std::string& name) {
    auto it = delta.find(name);
    return it == delta.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto lifetime = [&after](const std::string& name) {
    auto it = after.find(name);
    return it == after.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double completed = static_cast<double>(window.completed);

  // 4. Output verification (outside every timed metric).
  db->SetMemoryResident();
  int64_t checked = 0;
  const int64_t mismatches = VerifyResults(db, logs, threads, &checked);

  // Workload self-checks: each asserts the property that makes the
  // workload exercise its layer.
  auto share = [](const std::map<std::string, int64_t>& m,
                  const std::map<std::string, int64_t>& of,
                  const std::string& key) {
    auto a = m.find(key);
    auto b = of.find(key);
    return (a == m.end() || b == of.end())
               ? 0.0
               : Ratio(static_cast<double>(a->second),
                       static_cast<double>(b->second));
  };
  const double hit_rate =
      Ratio(counter(metrics::kBufferPoolHits),
            counter(metrics::kBufferPoolHits) + counter(metrics::kBufferPoolMisses));
  std::string self_check;
  const std::string name = workload.name;
  if (name == "q1-shared-scan") {
    if (share(tally.satellites, tally.records, "tscan") < 0.9 ||
        hit_rate != 1.0) {
      self_check = "tscan satellite share < 0.9 or buffer-pool misses";
    }
  } else if (name == "ssb-distinct-sp") {
    if (share(tally.satellites, tally.records, "join") > 0.05) {
      self_check = "join satellite share > 0.05";
    }
  } else if (name == "ssb-distinct-gqp") {
    if (counter(metrics::kCjoinQueriesAdmitted) < 0.95 * completed) {
      self_check = "cjoin admitted < 0.95 x completed";
    }
  } else if (name == "ssb-hotcold-adaptive") {
    if (counter(metrics::kSpPagesSpilled) <= 0 ||
        tally.decided_by.count("cold") == 0 ||
        tally.decided_by.count("model") == 0) {
      self_check = "no spill, or cold/model admission never decided";
    }
  }

  std::vector<Metric> out;
  if (!args.trace) {
    out = {
        {"throughput_qps", window.qps, "1/s"},
        {"latency_p50_ms", Quantile(window.latency_ms, 0.50), "ms"},
        {"latency_p95_ms", Quantile(window.latency_ms, 0.95), "ms"},
        {"cpu_ms_per_query", window.cpu_ms_per_query, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    auto per_query = [&](double v) { return Ratio(v, completed); };
    out.push_back({"core.submit_us.p50", Quantile(window.submit_us, 0.50), "us"});
    out.push_back({"core.submit_us.p99", Quantile(window.submit_us, 0.99), "us"});
    for (const char* stage : {"tscan", "join", "agg", "cjoin"}) {
      auto it = tally.run_us.find(stage);
      const double us = it == tally.run_us.end() ? 0 : it->second;
      out.push_back({std::string("qpipe.run_ms_per_query.") + stage,
                     Ratio(us / 1e3, static_cast<double>(tally.queries)),
                     "ms"});
    }
    for (const char* stage : {"tscan", "join", "agg", "cjoin"}) {
      out.push_back({std::string("qpipe.satellite_share.") + stage,
                     share(tally.satellites, tally.records, stage), "ratio"});
    }
    for (const char* d : {"static", "attach", "cold", "model", "fallback"}) {
      auto it = tally.decided_by.find(d);
      out.push_back({std::string("qpipe.decided_by_share.") + d,
                     Ratio(it == tally.decided_by.end() ? 0 : it->second,
                           static_cast<double>(tally.all_records)),
                     "ratio"});
    }
    const double kpages_shared = counter(metrics::kSpPagesShared) / 1e3;
    out.insert(
        out.end(),
        {
            {"sp.pages_shared_per_query",
             per_query(counter(metrics::kSpPagesShared)), "pages"},
            {"sp.bytes_copied_per_query",
             per_query(counter(metrics::kSpBytesCopied)), "B"},
            {"sp.reader_parks_per_kpage",
             Ratio(counter(metrics::kSpReaderParks), kpages_shared), "count"},
            {"sp.lock_waits_per_kpage",
             Ratio(counter(metrics::kSpLockWaits), kpages_shared), "count"},
            {"sp.pages_retained_hwm",
             lifetime(std::string(metrics::kSpPagesRetained) + ".hwm"),
             "pages"},
            {"sp.pages_spilled_per_query",
             per_query(counter(metrics::kSpPagesSpilled)), "pages"},
            {"sp.unspill_reads_per_query",
             per_query(counter(metrics::kSpUnspillReads)), "pages"},
            {"policy.flips", counter(metrics::kPolicyFlips), "count"},
            {"cjoin.admission_us_per_query",
             per_query(counter(metrics::kCjoinAdmissionMicros)), "us"},
            {"cjoin.queries_per_epoch",
             Ratio(counter(metrics::kCjoinQueriesAdmitted),
                   counter(metrics::kCjoinAdmissionEpochs)),
             "count"},
            {"cjoin.bitmap_ands_per_fact_tuple",
             Ratio(counter(metrics::kCjoinBitmapAndOps),
                   counter(metrics::kCjoinFactTuplesIn)),
             "count"},
            {"cjoin.tuple_yield",
             Ratio(counter(metrics::kCjoinTuplesOut),
                   counter(metrics::kCjoinFactTuplesIn)),
             "ratio"},
            {"cjoin.fact_tuples_per_query",
             per_query(counter(metrics::kCjoinFactTuplesIn)), "tuples"},
            {"bufferpool.hit_rate", hit_rate, "ratio"},
            {"bufferpool.evictions_per_query",
             per_query(counter(metrics::kBufferPoolEvictions)), "pages"},
            {"disk.page_reads_per_query",
             per_query(counter(metrics::kDiskPageReads)), "pages"},
            {"scan.pages_read_per_query",
             per_query(counter(metrics::kScanPagesRead)), "pages"},
            {"scan.shared_attach_per_query",
             per_query(counter(metrics::kScanSharedAttach)), "count"},
            {"io.reads_issued_per_query",
             per_query(counter(metrics::kIoReadsIssued)), "count"},
            {"io.writes_issued_per_query",
             per_query(counter(metrics::kIoWritesIssued)), "count"},
            {"io.stall_us_per_query",
             per_query(counter(metrics::kIoStallMicros)), "us"},
            {"io.queue_depth_hwm",
             lifetime(std::string(metrics::kIoQueueDepth) + ".hwm"), "count"},
        });
    for (const char* cls : {"prefetch", "faultback", "spill"}) {
      out.push_back(
          {std::string("io.dispatch_wait_us.") + cls + ".p99",
           lifetime(std::string("io.dispatch_wait.") + cls + ".p99"), "us"});
    }

    // Traced half: self time per span over the interval every ring's
    // history covers, per query completed in it.
    const auto complete = spans.CompleteIntervals(untraced_end_us, end_us);
    const auto self = spans.FoldSelfMicros(complete);
    int64_t folded_queries = 0, folded_us = 0;
    for (const auto& [from_us, to_us] : complete) {
      folded_queries += Summarize(logs, {}, from_us, to_us).completed;
      folded_us += to_us - from_us;
    }
    const WindowStats traced =
        Summarize(logs, cpu_marks, untraced_end_us, end_us);
    const std::pair<const char*, const char*> kSpans[] = {
        {"run_packet.tscan", "run_packet:TSCAN"},
        {"run_packet.join", "run_packet:JOIN"},
        {"run_packet.agg", "run_packet:AGG"},
        {"run_packet.cjoin", "run_packet:CJOIN"},
        {"spl.park", "spl.park"},
        {"pull.put", "pull.put"},
        {"push.put", "push.put"},
        {"spl.faultback", "spl.faultback"},
        {"bufferpool.miss_stall", "bufferpool.miss_stall"},
        {"policy.decide", "policy.decide"},
        {"io.prefetch", "io.prefetch"},
        {"io.faultback", "io.faultback"},
        {"io.spill", "io.spill"},
        {"bench.submit", "bench.submit"},
        {"bench.collect", "bench.collect"},
    };
    for (const auto& [metric, span] : kSpans) {
      auto it = self.find(span);
      const double us = it == self.end() ? 0 : static_cast<double>(it->second);
      out.push_back({std::string("trace.self_ms_per_query.") + metric,
                     Ratio(us / 1e3, static_cast<double>(folded_queries)),
                     "ms"});
    }
    out.push_back(
        {"trace.overhead_frac", 1.0 - Ratio(traced.qps, window.qps), "ratio"});
    std::printf("trace: %zu spans, folded %.2f of %.2f s over %" PRId64
                " queries\n",
                spans.size(),
                static_cast<double>(folded_us) / 1e6,
                static_cast<double>(end_us - untraced_end_us) / 1e6,
                folded_queries);
  }

  const int64_t failed = window.failed + mismatches;
  const bool correct = mismatches == 0 && window.failed == 0 &&
                       self_check.empty() && window.attempted > 0;
  for (const Metric& m : out) {
    std::printf("%-44s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("verified %" PRId64 " results, %" PRId64 " mismatches\n",
              checked, mismatches);
  if (!self_check.empty()) {
    std::printf("self-check FAILED for %s: %s\n", workload.name,
                self_check.c_str());
  }
  std::string setup_reps;
  for (double s : setup_s) {
    setup_reps += (setup_reps.empty() ? "" : ", ") + std::to_string(s);
  }
  std::printf(
      "detail {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"samples\": %zu, \"latency_p99_ms\": %.17g, "
      "\"setup_reps_s\": [%s], \"peak_rss_mb\": %.1f, \"nproc\": %ld, "
      "\"loadavg_1m\": %.2f, \"steal_ticks\": %" PRId64
      ", \"verified\": %" PRId64 ", \"self_check\": \"%s\"}\n",
      workload.name, args.seed, args.trace ? 1 : 0, window.latency_ms.size(),
      Quantile(window.latency_ms, 0.99), setup_reps.c_str(), peak_rss_mb,
      sysconf(_SC_NPROCESSORS_ONLN), load1,
      steal_before < 0 || steal_after < 0 ? -1 : steal_after - steal_before,
      checked, self_check.empty() ? "ok" : "failed");
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", window.attempted, failed,
              JsonMetrics(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sharing::perfbench

int main(int argc, char** argv) {
  using namespace sharing::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spill-dir <dir>]\n"
                 "       bench_e2e --check-fold\n");
    return 2;
  }
  return args.check_fold ? CheckFold() : Run(args);
}
