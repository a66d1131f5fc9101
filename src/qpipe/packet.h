// Packet: QPipe's unit of work. A query plan is converted into one packet
// per operator; each packet is dispatched to the stage implementing its
// operator, reads pages from its children's outputs and writes pages into
// its own output buffer.

#pragma once

#include <vector>

#include "exec/exec_context.h"
#include "exec/page_stream.h"
#include "exec/plan.h"
#include "storage/circular_scan.h"
#include "storage/table.h"

namespace sharing {

struct Packet {
  PlanNodeRef node;
  ExecContextRef ctx;

  /// Where this packet's operator writes. For SP hosts this is a sharing
  /// sink (tee or SPL); otherwise a plain FIFO.
  PageSinkRef output;

  /// One source per plan child, wired by the dispatcher.
  std::vector<PageSourceRef> inputs;

  // Scan packets only:
  const Table* table = nullptr;
  CircularScanGroup* scan_group = nullptr;
};

}  // namespace sharing
