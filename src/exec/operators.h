// Query-centric relational operators (QPipe's per-query stages run these).
//
// Operators are run-to-completion functions: they pull pages from sources,
// push pages into a sink, and Close() the sink with their terminal status.
// Early termination happens when (a) the context is cancelled, or (b) the
// sink reports that no consumer remains.

#pragma once

#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/page_stream.h"
#include "exec/plan.h"
#include "storage/circular_scan.h"
#include "storage/table.h"

namespace sharing {

/// Scans `table`, filters with node.predicate(), projects node.projection()
/// and emits pages of the node's output schema.
///
/// The scan rides `scan_group`'s circular scan of `table` (pages arrive in
/// wrap-around order; selection semantics are unaffected).
Status RunScan(const ScanNode& node, const Table* table,
               CircularScanGroup& scan_group, ExecContext* ctx,
               PageSink* sink);

/// Hash equi-join; consumes the whole build source first, then streams the
/// probe source. Output rows are build-row bytes followed by probe-row
/// bytes (matching JoinNode's output schema).
Status RunHashJoin(const JoinNode& node, PageSource* build, PageSource* probe,
                   ExecContext* ctx, PageSink* sink);

/// Group-by hash aggregation; consumes the entire input, then emits one row
/// per group.
Status RunHashAggregate(const AggregateNode& node, PageSource* input,
                        ExecContext* ctx, PageSink* sink);

/// Full sort; consumes the entire input, then emits rows in key order.
Status RunSort(const SortNode& node, PageSource* input, ExecContext* ctx,
               PageSink* sink);

}  // namespace sharing
