// CJoinStage: the CJOIN operator packaged as a QPipe stage (paper Fig. 2).
//
// Packets arriving here carry star-join sub-plans; the stage admits them to
// the shared CJOIN pipeline. Because it is a regular Stage, all of QPipe's
// SP machinery applies: with SP enabled (pull mode), two queries whose
// star sub-plans are identical share one CJOIN admission — the satellite
// reads the host's Shared Pages List, "saving admission costs and
// unnecessary book-keeping costs" exactly as the paper describes.
//
// SharingEngine builds the stage from the QPipe engine's derived stage
// options and, in GQP modes, routes star-join sub-plans to it through the
// engine's join-dispatch hook; non-star joins stay on the JOIN stage.

#pragma once

#include "cjoin/pipeline.h"
#include "cjoin/star_query.h"
#include "qpipe/stage.h"

namespace sharing {

class CJoinStage final : public Stage {
 public:
  CJoinStage(CJoinPipeline* pipeline, Options options,
             MetricsRegistry* metrics)
      : Stage("CJOIN", options, metrics), pipeline_(pipeline) {}

  CJoinPipeline* pipeline() const { return pipeline_; }

 protected:
  void RunPacket(Packet& packet) override;

 private:
  CJoinPipeline* pipeline_;
};

}  // namespace sharing
