#include "cjoin/cjoin_stage.h"

#include "common/logging.h"

namespace sharing {

void CJoinStage::RunPacket(Packet& packet) {
  auto spec_or =
      StarQueryFromPlan(*packet.node, pipeline_->fact_table_name());
  if (!spec_or.ok()) {
    packet.output->Close(spec_or.status());
    return;
  }
  // Blocks until the query has seen one full fact-table cycle; the
  // pipeline streams pages into the packet's output and closes it.
  Status st =
      pipeline_->ExecuteQuery(spec_or.value(), packet.ctx, packet.output);
  if (!st.ok() && st.code() != StatusCode::kAborted) {
    SHARING_LOG(Error) << "CJOIN packet failed: " << st.ToString();
  }
}

}  // namespace sharing
