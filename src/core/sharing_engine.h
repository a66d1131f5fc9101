// SharingEngine: the unified system of the demo — QPipe (reactive sharing,
// push- or pull-based SP) with the CJOIN stage (proactive sharing, GQP)
// integrated, switchable at run time between five execution modes:
//
//   kQueryCentric  query-centric operators (+ shared circular scans)
//   kSpPush        SP with the original push-based FIFO-copy model
//   kSpPull        SP with the Shared Pages List (pull model)
//   kGqp           star joins through the CJOIN global query plan
//   kGqpSp         GQP plus SP on the CJOIN stage (sharing combined)
//
// The same PlanNode trees run under every mode, which is what makes the
// paper's head-to-head comparisons (and our equivalence tests) possible.

#pragma once

#include <memory>
#include <string_view>

#include "cjoin/cjoin_stage.h"
#include "core/database.h"
#include "qpipe/engine.h"

namespace sharing {

enum class EngineMode {
  kQueryCentric,
  kSpPush,
  kSpPull,
  /// Adaptive SP: every QPipe stage picks off/push/pull per packet from
  /// live stage statistics (see AdaptiveSpPolicy).
  kSpAdaptive,
  kGqp,
  kGqpSp,
};

std::string_view EngineModeToString(EngineMode mode);

struct EngineConfig {
  EngineMode mode = EngineMode::kQueryCentric;

  /// Initial workers per QPipe stage (elastic beyond that).
  std::size_t stage_workers = 2;

  /// Cap on each stage's elastic pool (the demo's core-binding knob; see
  /// Stage::Options::max_workers for the deadlock caveat).
  std::size_t stage_max_workers = 1024;

  /// Circular shared scans at the I/O layer.
  bool shared_scans = true;

  std::size_t fifo_capacity = 8;

  /// Pages per batched sharing-transport call (see
  /// QPipeOptions::sp_read_batch); 0 or 1 = page-at-a-time.
  std::size_t sp_read_batch = 8;

  /// Thresholds for the adaptive SP admission policy (kSpAdaptive mode,
  /// or any stage later switched to SpMode::kAdaptive). Fallback only
  /// once a signature has cost-model history — see the knobs below.
  AdaptiveSpPolicy adaptive;

  /// Per-signature admission cost model (see QPipeOptions for full
  /// semantics): ring-buffer history per packet signature, minimum
  /// samples before the model overrides the stage-wide thresholds, and
  /// a per-decision debug dump.
  std::size_t cost_model_history = 32;
  std::size_t cost_model_min_samples = 3;
  bool cost_model_debug = false;

  /// Engine-wide in-memory SP page budget for pull-model retention
  /// (0 = unbounded). Over budget, sharing channels spill
  /// already-consumed pages to a temp file and fault them back on
  /// demand — the memory/latency trade of the spill tier (DESIGN.md
  /// decision #7).
  std::size_t sp_memory_budget = 0;

  /// Backing file for spilled SP pages; empty picks a unique temp file.
  std::string sp_spill_path;

  /// Async I/O scheduler (see QPipeOptions for full semantics):
  /// worker threads (0 = no scheduler, fully synchronous I/O),
  /// per-priority-class MiB/s budget (0 = unthrottled), the in-flight
  /// spill-write window, and circular-scan readahead depth (QPipe scans
  /// and the CJOIN fact scan alike).
  std::size_t io_threads = 2;
  std::size_t io_budget_mib = 0;
  std::size_t spill_write_window = 16;
  std::size_t scan_prefetch_depth = 4;

  /// Observability (see QPipeOptions for full semantics): query-lifecycle
  /// tracing (process-wide recorder, Chrome trace-event export), its
  /// per-thread ring capacity, and the periodic metrics reporter (0 = no
  /// reporter thread; empty path = stderr).
  bool trace_enabled = false;
  std::size_t trace_buffer_events = 8192;
  std::size_t stats_report_period_ms = 0;
  std::string stats_report_path;

  /// Embedded admin/introspection server and its stall watchdog (see
  /// QPipeOptions and docs/ADMIN.md): admin_port -1 = no TCP listener,
  /// 0 = ephemeral on 127.0.0.1, >0 = that port; the server runs iff a
  /// TCP or UDS listener is configured. The watchdog thread runs iff
  /// the server is enabled and watchdog_period_ms > 0.
  int admin_port = -1;
  std::string admin_uds_path;
  std::size_t watchdog_period_ms = 1000;
  std::size_t watchdog_query_slo_ms = 10000;
  std::size_t watchdog_parked_reader_ms = 5000;
  std::size_t watchdog_io_queue_depth = 256;
  std::size_t watchdog_spill_thrash_pages = 512;

  /// Robustness (see QPipeOptions for full semantics): escalate the
  /// watchdog's over-SLO flag to a cancellation; a per-query wall-clock
  /// deadline in ms (0 = none) after which Collect returns
  /// kDeadlineExceeded; bounded retries for transient I/O failures; and
  /// a fault-injection schedule armed at construction (empty = none —
  /// see docs/ROBUSTNESS.md for the spec grammar).
  bool watchdog_cancel_over_slo = false;
  std::size_t query_timeout_ms = 0;
  std::size_t io_retry_limit = 0;
  std::string fault_spec;

  /// CJOIN configuration; the pipeline is built iff `fact_table` is
  /// non-empty (GQP modes require it).
  std::string fact_table;
  std::vector<CJoinLevelSpec> cjoin_levels;
  CJoinOptions cjoin;
};

class SharingEngine {
 public:
  SharingEngine(Database* db, EngineConfig config);
  ~SharingEngine();

  SHARING_DISALLOW_COPY_AND_MOVE(SharingEngine);

  /// Switches execution mode at run time (the demo GUI's engine selector).
  void SetMode(EngineMode mode);
  EngineMode mode() const { return config_.mode; }

  QueryHandle Submit(PlanNodeRef plan) { return qpipe_->Submit(plan); }
  StatusOr<ResultSet> Execute(PlanNodeRef plan) {
    return qpipe_->Execute(plan);
  }

  Database* database() { return db_; }
  QPipeEngine* qpipe() { return qpipe_.get(); }
  CJoinPipeline* cjoin_pipeline() { return pipeline_.get(); }
  CJoinStage* cjoin_stage() { return cjoin_stage_.get(); }

 private:
  Database* db_;
  EngineConfig config_;
  std::unique_ptr<QPipeEngine> qpipe_;
  std::unique_ptr<CJoinPipeline> pipeline_;
  std::shared_ptr<CJoinStage> cjoin_stage_;
};

}  // namespace sharing
