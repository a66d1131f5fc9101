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
  /// the signature's history (see SharingCostModel).
  kSpAdaptive,
  kGqp,
  kGqpSp,
};

std::string_view EngineModeToString(EngineMode mode);

/// The SharingEngine's configuration: every QPipeOptions knob (handed to
/// the QPipe engine as is, and to the CJOIN stage through the same
/// derived Stage::Options) plus the fields only the SharingEngine reads.
/// `mode` overrides the inherited sp_mode.
struct EngineConfig : QPipeOptions {
  EngineMode mode = EngineMode::kQueryCentric;

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
