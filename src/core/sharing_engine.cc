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
  qpipe_ = std::make_unique<QPipeEngine>(db_->catalog(), config_,
                                         db_->metrics());

  if (!config_.fact_table.empty()) {
    // The fact scan reads ahead through the engine's I/O scheduler, at
    // the same default depth as QPipe's circular scans (none when
    // io_threads=0).
    pipeline_ = std::make_unique<CJoinPipeline>(
        db_->catalog(), config_.fact_table, config_.cjoin_levels,
        config_.cjoin, db_->metrics(), qpipe_->io_scheduler());
    // The CJOIN stage runs on the same derived options as every QPipe
    // stage: its sharing sessions count against the same SP budget and
    // spill through the same store. SetMode routes star joins to it.
    cjoin_stage_ = std::make_shared<CJoinStage>(
        pipeline_.get(), qpipe_->base_stage_options(), db_->metrics());
    qpipe_->RegisterExtraStage(cjoin_stage_);
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
            if (!spec_or.ok()) return nullptr;  // not a star: JOIN stage
            return stage->SubmitOrShare(node, ctx, /*make_inputs=*/{});
          });
    } else {
      qpipe_->SetJoinDispatchHook(nullptr);
    }
  }
}

}  // namespace sharing
