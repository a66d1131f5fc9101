#include "core/sharing_engine.h"

#include "common/logging.h"

namespace sharing {

std::string_view EngineModeToString(EngineMode mode) {
  switch (mode) {
    case EngineMode::kQueryCentric:
      return "query-centric";
    case EngineMode::kSpPush:
      return "sp-push";
    case EngineMode::kSpPull:
      return "sp-pull";
    case EngineMode::kSpAdaptive:
      return "sp-adaptive";
    case EngineMode::kGqp:
      return "gqp";
    case EngineMode::kGqpSp:
      return "gqp+sp";
  }
  return "?";
}

SharingEngine::SharingEngine(Database* db, EngineConfig config)
    : db_(db), config_(std::move(config)) {
  QPipeOptions qopts;
  qopts.shared_scans = config_.shared_scans;
  qopts.stage_workers = config_.stage_workers;
  qopts.stage_max_workers = config_.stage_max_workers;
  qopts.fifo_capacity = config_.fifo_capacity;
  qopts.sp_read_batch = config_.sp_read_batch;
  qopts.adaptive = config_.adaptive;
  qopts.cost_model_history = config_.cost_model_history;
  qopts.cost_model_min_samples = config_.cost_model_min_samples;
  qopts.cost_model_debug = config_.cost_model_debug;
  qopts.sp_memory_budget = config_.sp_memory_budget;
  qopts.sp_spill_path = config_.sp_spill_path;
  qopts.io_threads = config_.io_threads;
  qopts.io_budget_mib = config_.io_budget_mib;
  qopts.spill_write_window = config_.spill_write_window;
  qopts.scan_prefetch_depth = config_.scan_prefetch_depth;
  qopts.trace_enabled = config_.trace_enabled;
  qopts.trace_buffer_events = config_.trace_buffer_events;
  qopts.stats_report_period_ms = config_.stats_report_period_ms;
  qopts.stats_report_path = config_.stats_report_path;
  qopts.admin_port = config_.admin_port;
  qopts.admin_uds_path = config_.admin_uds_path;
  qopts.watchdog_period_ms = config_.watchdog_period_ms;
  qopts.watchdog_query_slo_ms = config_.watchdog_query_slo_ms;
  qopts.watchdog_parked_reader_ms = config_.watchdog_parked_reader_ms;
  qopts.watchdog_io_queue_depth = config_.watchdog_io_queue_depth;
  qopts.watchdog_spill_thrash_pages = config_.watchdog_spill_thrash_pages;
  qopts.watchdog_cancel_over_slo = config_.watchdog_cancel_over_slo;
  qopts.query_timeout_ms = config_.query_timeout_ms;
  qopts.io_retry_limit = config_.io_retry_limit;
  qopts.fault_spec = config_.fault_spec;
  qpipe_ = std::make_unique<QPipeEngine>(db_->catalog(), qopts,
                                         db_->metrics());

  if (!config_.fact_table.empty()) {
    // The fact scan reads ahead through the engine's I/O scheduler with
    // the same depth as QPipe's circular scans (none when io_threads=0).
    pipeline_ = std::make_unique<CJoinPipeline>(
        db_->catalog(), config_.fact_table, config_.cjoin_levels,
        config_.cjoin, db_->metrics(), qpipe_->io_scheduler(),
        config_.scan_prefetch_depth);
    Stage::Options sopts;
    sopts.initial_workers = config_.stage_workers;
    sopts.fifo_capacity = config_.fifo_capacity;
    sopts.sp_read_batch = config_.sp_read_batch;
    // The CJOIN stage shares the engine's adaptive thresholds, cost
    // model tuning and memory governor: its sharing sessions count
    // against the same SP budget and spill through the same store as
    // every QPipe stage.
    sopts.adaptive = config_.adaptive;
    sopts.cost_model.history = config_.cost_model_history;
    sopts.cost_model.min_samples = config_.cost_model_min_samples;
    sopts.cost_model.debug = config_.cost_model_debug;
    sopts.cost_model.capacity = config_.adaptive.popularity_capacity;
    sopts.governor = qpipe_->sp_governor();
    cjoin_stage_ = AttachCJoinToEngine(qpipe_.get(), pipeline_.get(), sopts);
  }

  SetMode(config_.mode);
}

SharingEngine::~SharingEngine() {
  // QPipe stages (including the CJOIN stage) must drain before the
  // pipeline they feed is torn down.
  qpipe_.reset();
  pipeline_.reset();
}

void SharingEngine::SetMode(EngineMode mode) {
  config_.mode = mode;
  const bool gqp = mode == EngineMode::kGqp || mode == EngineMode::kGqpSp;
  SHARING_CHECK(!gqp || pipeline_ != nullptr)
      << "GQP mode requires a CJOIN pipeline (set EngineConfig::fact_table)";

  switch (mode) {
    case EngineMode::kQueryCentric:
      qpipe_->SetSpModeAllStages(SpMode::kOff);
      break;
    case EngineMode::kSpPush:
      qpipe_->SetSpModeAllStages(SpMode::kPush);
      break;
    case EngineMode::kSpAdaptive:
      qpipe_->SetSpModeAllStages(SpMode::kAdaptive);
      break;
    case EngineMode::kSpPull:
    case EngineMode::kGqp:
    case EngineMode::kGqpSp:
      // The paper's scenarios II-IV enable SP for all stages on both
      // engine configurations; pull mode is the improved SP.
      qpipe_->SetSpModeAllStages(SpMode::kPull);
      break;
  }

  if (cjoin_stage_ != nullptr) {
    // Shared CJOIN runs adaptive, not pull-only: star-join sessions get
    // the same per-packet off/push/pull choice (and the pull+spill tier)
    // as every other stage. Attaching to an in-flight identical star
    // packet stays free in either transport.
    cjoin_stage_->SetSpMode(mode == EngineMode::kGqpSp ? SpMode::kAdaptive
                                                       : SpMode::kOff);
  }

  // Route star joins to CJOIN only in GQP modes.
  if (pipeline_ != nullptr) {
    if (gqp) {
      auto stage = cjoin_stage_;
      std::string fact = pipeline_->fact_table_name();
      qpipe_->SetJoinDispatchHook(
          [stage, fact](const PlanNodeRef& node,
                        const ExecContextRef& ctx) -> PageSourceRef {
            auto spec_or = StarQueryFromPlan(*node, fact);
            if (!spec_or.ok()) return nullptr;
            return stage->SubmitOrShare(node, ctx, /*make_inputs=*/{});
          });
    } else {
      qpipe_->SetJoinDispatchHook(nullptr);
    }
  }
}

}  // namespace sharing
