#include "qpipe/stages.h"

#include "common/logging.h"

namespace sharing {

namespace {

void LogUnexpected(const char* stage, const Status& st) {
  // Aborted is a normal outcome (cancellation / consumers detached);
  // anything else deserves a log line. The status also reaches the
  // consumer through the sink's final status.
  if (!st.ok() && st.code() != StatusCode::kAborted) {
    SHARING_LOG(Error) << stage << " packet failed: " << st.ToString();
  }
}

}  // namespace

void TscanStage::RunPacket(Packet& packet) {
  const auto& node = static_cast<const ScanNode&>(*packet.node);
  SHARING_CHECK(packet.table != nullptr && packet.scan_group != nullptr)
      << "scan packet lacks table binding";
  Status st = RunScan(node, packet.table, *packet.scan_group,
                      packet.ctx.get(), packet.output.get());
  LogUnexpected("TSCAN", st);
}

void JoinStage::RunPacket(Packet& packet) {
  const auto& node = static_cast<const JoinNode&>(*packet.node);
  SHARING_CHECK(packet.inputs.size() == 2);
  Status st = RunHashJoin(node, packet.inputs[0].get(), packet.inputs[1].get(),
                          packet.ctx.get(), packet.output.get());
  LogUnexpected("JOIN", st);
}

void AggStage::RunPacket(Packet& packet) {
  const auto& node = static_cast<const AggregateNode&>(*packet.node);
  SHARING_CHECK(packet.inputs.size() == 1);
  Status st = RunHashAggregate(node, packet.inputs[0].get(), packet.ctx.get(),
                               packet.output.get());
  LogUnexpected("AGG", st);
}

void SortStage::RunPacket(Packet& packet) {
  const auto& node = static_cast<const SortNode&>(*packet.node);
  SHARING_CHECK(packet.inputs.size() == 1);
  Status st = RunSort(node, packet.inputs[0].get(), packet.ctx.get(),
                      packet.output.get());
  LogUnexpected("SORT", st);
}

}  // namespace sharing
