// QPipeEngine: the staged, work-sharing execution engine.
//
// Submitting a plan converts it into packets dispatched to the TSCAN /
// JOIN / AGG / SORT stages (SharingEngine adds the CJOIN stage).
// Per-stage SP modes control reactive sharing; circular shared scans at
// the I/O layer are on by default (the paper: "Without SP for any stage,
// the QPipe engine is similar to a query-centric execution engine with
// shared scans").

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/status_or.h"
#include "exec/result.h"
#include "qpipe/stages.h"
#include "storage/circular_scan.h"
#include "storage/table.h"

namespace sharing {

class AdminServer;
class Watchdog;

struct QPipeOptions {
  /// SP mode every stage starts in (SharingEngine overrides it from
  /// EngineConfig::mode). A per-stage mode is set at run time through the
  /// stage, e.g. scan_stage()->SetSpMode(SpMode::kPull).
  SpMode sp_mode = SpMode::kOff;

  /// Initial workers per stage (pools grow elastically).
  std::size_t stage_workers = 2;

  /// Cap on each stage's elastic pool (see Stage::Options::max_workers for
  /// the deadlock caveat; leave at the default for general workloads).
  std::size_t stage_max_workers = 1024;

  /// FIFO capacity in pages.
  std::size_t fifo_capacity = FifoBuffer::kDefaultCapacity;

  /// Closed sessions AND work samples a signature needs before the
  /// per-signature cost model (SpMode::kAdaptive) prices it; below this
  /// the model's prior hosts pull. 0 is clamped to 1 (a model with no
  /// history would divide by zero conceptually, not literally).
  std::size_t cost_model_min_samples = 3;

  /// Engine-wide in-memory SP page budget (pull-model retention across
  /// every stage's sharing channels). 0 = unbounded. When the budget is
  /// exceeded, SPLs migrate retained pages to a temp spill file and
  /// fault them back on demand, so one stalled satellite no longer pins
  /// a host's whole result in RAM (see sp_budget_governor.h).
  std::size_t sp_memory_budget = 0;

  /// Backing file for spilled SP pages; empty picks a unique temp file.
  std::string sp_spill_path;

  /// I/O scheduler worker threads. 0 disables the scheduler entirely:
  /// spill writes run synchronously in the producer path and scans read
  /// page-at-a-time (the pre-IoScheduler behavior).
  std::size_t io_threads = 2;

  /// Query-lifecycle tracing (see common/trace.h, docs/TRACING.md).
  /// Enables the process-wide recorder at engine construction; spans
  /// export as Chrome trace-event JSON via Trace::ExportChromeJson.
  /// Off: every instrumented path costs one relaxed load.
  bool trace_enabled = false;

  /// Per-thread trace ring capacity in events (overwrite-oldest).
  /// Bounded memory: threads * trace_buffer_events * ~176 bytes.
  std::size_t trace_buffer_events = 8192;

  /// Embedded admin/introspection HTTP server (see server/admin_server.h):
  /// -1 = no TCP listener, 0 = ephemeral port on 127.0.0.1 (read it back
  /// via QPipeEngine::admin_server()->port()), >0 = that port. The server
  /// runs iff admin_port >= 0 or admin_uds_path is set.
  int admin_port = -1;

  /// Unix-domain-socket listener path for the admin server; empty = none.
  std::string admin_uds_path;

  /// Stall-watchdog sampling period; 0 = no watchdog thread. The
  /// watchdog only runs when the admin server is enabled (it is the
  /// /healthz verdict source); its thresholds are Watchdog::Options'
  /// defaults.
  std::size_t watchdog_period_ms = 1000;

  /// Per-query wall-clock budget in milliseconds; 0 = unlimited. An
  /// expired query stops at the next page boundary (operator polls,
  /// reader parks, I/O waits) and Collect returns kDeadlineExceeded
  /// instead of hanging on a stalled input.
  std::size_t query_timeout_ms = 0;

  /// I/O scheduler retries for transiently failing jobs (kIoError /
  /// kUnavailable), with exponential backoff + jitter on the worker;
  /// 0 disables. See IoScheduler::Options::retry_limit.
  std::size_t io_retry_limit = 0;

  /// Fault-injection schedule armed at engine construction; empty = none.
  /// Grammar (see common/fault.h): comma-separated
  /// `seed=<uint>` / `<point>=p<prob>` / `<point>=n<N>` / `<point>=once`,
  /// each with an optional `*<payload>` suffix — e.g.
  /// "seed=7,disk.read=p0.01,io.dispatch.delay=n10*2000". The registry
  /// is process-global; the /faults admin endpoint re-arms it at run
  /// time. An invalid spec fails engine construction loudly (a chaos run
  /// that silently tests nothing is worse than one that refuses to run).
  std::string fault_spec;
};

/// A submitted query: pull pages from it, collect everything, or cancel.
class QueryHandle {
 public:
  QueryHandle() = default;
  QueryHandle(PlanNodeRef plan, PageSourceRef root, ExecContextRef ctx)
      : plan_(std::move(plan)), root_(std::move(root)), ctx_(std::move(ctx)) {}

  bool valid() const { return root_ != nullptr; }
  const Schema& schema() const { return plan_->output_schema(); }
  const ExecContextRef& context() const { return ctx_; }

  /// Next result page (nullptr at end).
  PageRef Next() { return root_->Next(); }

  /// Drains the query to completion and materializes the result.
  StatusOr<ResultSet> Collect();

  /// Cooperative cancel: stops this query's packets; if this query is an
  /// SP satellite only its own consumption stops (the host continues for
  /// other consumers) — paper Fig. 1a.
  void Cancel();

  /// The query's sharing-explain report as of now (admission verdicts,
  /// roles, page provenance, stage timings). Collect() attaches the
  /// final report to the ResultSet; this accessor serves streaming
  /// consumers and cancelled queries.
  QueryExplain Explain() const;

 private:
  PlanNodeRef plan_;
  PageSourceRef root_;
  ExecContextRef ctx_;
};

class QPipeEngine {
 public:
  QPipeEngine(Catalog* catalog, QPipeOptions options,
              MetricsRegistry* metrics = &MetricsRegistry::Global());
  ~QPipeEngine();

  SHARING_DISALLOW_COPY_AND_MOVE(QPipeEngine);

  /// Dispatches `plan` and returns a handle streaming its results.
  QueryHandle Submit(PlanNodeRef plan);

  /// Submit + Collect.
  StatusOr<ResultSet> Execute(PlanNodeRef plan);

  Catalog* catalog() const { return catalog_; }
  MetricsRegistry* metrics() const { return metrics_; }

  TscanStage* scan_stage() { return tscan_.get(); }
  JoinStage* join_stage() { return join_.get(); }
  AggStage* agg_stage() { return agg_.get(); }
  SortStage* sort_stage() { return sort_.get(); }

  /// Stage::Options derived from QPipeOptions (workers, FIFO capacity,
  /// admission tuning, the SP governor), with sp_mode kOff.
  /// Every stage is built from it, auxiliary stages such as CJOIN
  /// included.
  const Stage::Options& base_stage_options() const {
    return base_stage_options_;
  }

  /// The engine-wide SP memory governor; null when
  /// QPipeOptions::sp_memory_budget is 0.
  const std::shared_ptr<SpBudgetGovernor>& sp_governor() const {
    return sp_governor_;
  }

  /// The engine-wide async I/O scheduler; null when
  /// QPipeOptions::io_threads is 0.
  const std::shared_ptr<IoScheduler>& io_scheduler() const {
    return io_scheduler_;
  }

  /// Reconfigures SP for all stages at run time (the demo GUI's
  /// per-stage SP checkboxes).
  void SetSpModeAllStages(SpMode mode);

  /// The shared circular-scan group for `table` (created on first use).
  CircularScanGroup* ScanGroupFor(const Table* table);

  /// Registers an auxiliary stage (the CJOIN integration uses this to
  /// participate in engine shutdown).
  void RegisterExtraStage(std::shared_ptr<Stage> stage);

  /// Dispatches a sub-plan and returns the source of its results. Public
  /// so the CJOIN stage can dispatch query-centric operators *above* the
  /// global query plan.
  PageSourceRef Dispatch(const PlanNodeRef& node, const ExecContextRef& ctx);

  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Plan-kind hook: when set, plans whose root/subtree kind has a custom
  /// dispatcher (e.g. CJOIN-eligible star joins) are routed there first.
  using DispatchHook =
      std::function<PageSourceRef(const PlanNodeRef&, const ExecContextRef&)>;
  void SetJoinDispatchHook(DispatchHook hook);

  /// One in-flight query's admin-server view (the /queries endpoint and
  /// the watchdog's age-SLO probe).
  struct LiveQueryInfo {
    uint64_t query_id = 0;
    uint64_t signature = 0;
    /// Submission-to-now age (trace timebase).
    int64_t age_micros = 0;
    bool cancelled = false;
    /// The deepest stage that has recorded an admission for this query
    /// so far ("dispatch" before any stage has).
    std::string stage;
    /// Pages delivered across the query's stage records so far.
    int64_t pages_delivered = 0;
  };

  /// Snapshot of every submitted-but-unfinished query. Lazily prunes
  /// queries whose context died (abandoned handle) or that finished.
  std::vector<LiveQueryInfo> LiveQueries();

  /// The explain report for one in-flight query; nullopt when the id is
  /// unknown (or already pruned).
  std::optional<QueryExplain> ExplainQuery(uint64_t query_id);

  /// The embedded admin server; null unless QPipeOptions::admin_port
  /// >= 0 or admin_uds_path is set (or if its listener failed to bind).
  AdminServer* admin_server() const { return admin_server_.get(); }

  /// The stall watchdog; null unless the admin server is enabled and
  /// QPipeOptions::watchdog_period_ms > 0.
  Watchdog* watchdog() const { return watchdog_.get(); }

 private:
  Catalog* catalog_;
  QPipeOptions options_;
  MetricsRegistry* metrics_;

  std::shared_ptr<IoScheduler> io_scheduler_;
  std::shared_ptr<SpBudgetGovernor> sp_governor_;
  Stage::Options base_stage_options_;
  std::unique_ptr<TscanStage> tscan_;
  std::unique_ptr<JoinStage> join_;
  std::unique_ptr<AggStage> agg_;
  std::unique_ptr<SortStage> sort_;
  /// Guards extra_stages_: the admin server's /channels handler walks
  /// the list concurrently with CJOIN registration.
  mutable std::mutex extra_stages_mutex_;
  std::vector<std::shared_ptr<Stage>> extra_stages_;

  /// Stopped FIRST in the destructor (handlers and the watchdog read
  /// through the stages). Declared last-ish but torn down explicitly.
  std::unique_ptr<Watchdog> watchdog_;
  std::unique_ptr<AdminServer> admin_server_;

  /// Live-query registry for /queries, /explain and the watchdog.
  struct LiveQuery {
    uint64_t signature = 0;
    std::weak_ptr<ExecContext> ctx;
  };
  std::mutex live_mutex_;
  std::map<uint64_t, LiveQuery> live_queries_;

  std::mutex scan_groups_mutex_;
  std::map<const Table*, std::unique_ptr<CircularScanGroup>> scan_groups_;

  std::mutex hook_mutex_;
  DispatchHook join_hook_;

  std::atomic<uint64_t> next_query_id_{1};
};

}  // namespace sharing
