#include "exec/operators.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "exec/flat_table.h"
#include "storage/tuple.h"

namespace sharing {

namespace {

/// Accumulates output rows into pages and forwards full pages to the sink.
/// Returns false from Append* when the sink has no consumers left.
class PageEmitter {
 public:
  PageEmitter(std::size_t row_width, PageSink* sink)
      : row_width_(row_width), sink_(sink) {
    current_ = std::make_shared<RowPage>(row_width_);
  }

  uint8_t* AppendSlot() {
    uint8_t* slot = current_->AppendSlot();
    if (slot != nullptr) return slot;
    if (!Flush()) return nullptr;
    return current_->AppendSlot();
  }

  bool AppendRow(const uint8_t* row) {
    uint8_t* slot = AppendSlot();
    if (slot == nullptr) return false;
    std::memcpy(slot, row, row_width_);
    return true;
  }

  /// Emits the current partial page. Returns false when consumers are gone.
  bool Flush() {
    if (current_->empty()) return true;
    PageRef out = std::move(current_);
    current_ = std::make_shared<RowPage>(row_width_);
    return sink_->Put(std::move(out));
  }

 private:
  std::size_t row_width_;
  PageSink* sink_;
  std::shared_ptr<RowPage> current_;
};

/// Terminates early: tells upstream producers this consumer is gone, then
/// seals the output with an Aborted status.
Status Abort(const char* why, PageSink* sink,
             std::initializer_list<PageSource*> inputs = {}) {
  for (PageSource* in : inputs) {
    if (in != nullptr) in->CancelConsumer();
  }
  Status st = Status::Aborted(why);
  sink->Close(st);
  return st;
}

/// Terminal close for a stop request (cancellation or deadline expiry):
/// tells upstream producers this consumer is gone, then seals the output
/// with the context's verdict so DeadlineExceeded propagates intact
/// instead of degrading into a generic abort.
Status FinishStopped(ExecContext* ctx, PageSink* sink,
                     std::initializer_list<PageSource*> inputs = {}) {
  for (PageSource* in : inputs) {
    if (in != nullptr) in->CancelConsumer();
  }
  Status st = ctx->TerminalStatus();
  if (st.ok()) st = Status::Aborted("query cancelled");
  sink->Close(st);
  return st;
}

Status FinishNoConsumers(PageSink* sink,
                         std::initializer_list<PageSource*> inputs = {}) {
  return Abort("all consumers detached", sink, inputs);
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel building blocks
// ---------------------------------------------------------------------------

namespace {

/// One byte copy from an input row into an output row or packed key.
struct ByteRange {
  std::size_t src, dst, width;
};

/// Appends a column copy, merging it into the previous range when it is
/// adjacent on both sides — a projection of neighbouring columns (Q1's
/// six lineitem columns, say) becomes one memcpy per row.
void AddRange(std::vector<ByteRange>* ranges, std::size_t src,
              std::size_t dst, std::size_t width) {
  if (!ranges->empty()) {
    ByteRange& last = ranges->back();
    if (last.src + last.width == src && last.dst + last.width == dst) {
      last.width += width;
      return;
    }
  }
  ranges->push_back({src, dst, width});
}

void CopyRanges(const std::vector<ByteRange>& ranges, const uint8_t* src,
                uint8_t* dst) {
  for (const ByteRange& r : ranges) {
    std::memcpy(dst + r.dst, src + r.src, r.width);
  }
}

uint64_t LoadWord(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

namespace {

/// Page-at-a-time filter + projection for one scan: the predicate
/// narrows a selection vector over the whole stored page, then only the
/// surviving rows are copied out, through merged byte ranges.
class ScanKernel {
 public:
  ScanKernel(const ScanNode& node, const Schema& table_schema)
      : predicate_(node.predicate().get()), schema_(table_schema) {
    const Schema& out = node.output_schema();
    for (std::size_t c = 0; c < node.projection().size(); ++c) {
      AddRange(&copies_, table_schema.offset(node.projection()[c]),
               out.offset(c), out.column(c).width);
    }
  }

  /// Filters+projects the rows of one stored page into the emitter.
  /// Returns false when the sink lost all consumers.
  bool Run(const uint8_t* frame, PageEmitter* emitter) {
    const uint32_t n_rows = page_layout::RowCount(frame);
    const std::size_t stride = schema_.row_width();
    SHARING_DCHECK(page_layout::RowWidth(frame) == stride);
    const uint8_t* rows = frame + page_layout::kHeaderBytes;
    sel_.resize(n_rows);
    std::iota(sel_.begin(), sel_.end(), 0u);
    const std::size_t kept =
        predicate_->EvalBoolBatch(rows, stride, schema_, sel_.data(), n_rows);
    for (std::size_t k = 0; k < kept; ++k) {
      uint8_t* slot = emitter->AppendSlot();
      if (slot == nullptr) return false;
      CopyRanges(copies_, rows + std::size_t(sel_[k]) * stride, slot);
    }
    return true;
  }

 private:
  const Expr* predicate_;
  const Schema& schema_;
  std::vector<ByteRange> copies_;
  std::vector<uint32_t> sel_;
};

}  // namespace

Status RunScan(const ScanNode& node, const Table* table,
               CircularScanGroup& scan_group, ExecContext* ctx,
               PageSink* sink) {
  SHARING_CHECK(table->schema() == node.table_schema())
      << "plan schema does not match table " << table->name();
  SHARING_CHECK(scan_group.table() == table)
      << "scan group does not scan table " << table->name();
  PageEmitter emitter(node.output_schema().row_width(), sink);
  ScanKernel kernel(node, table->schema());

  auto ticket = scan_group.Attach();
  while (ScanPageRef page = ticket->Next()) {
    if (ctx->StopRequested()) {
      ticket->Cancel();
      return FinishStopped(ctx, sink);
    }
    if (!kernel.Run(page->data(), &emitter)) {
      ticket->Cancel();
      return FinishNoConsumers(sink);
    }
  }
  Status scan_status = ticket->FinalStatus();
  if (!scan_status.ok()) {
    sink->Close(scan_status);
    return scan_status;
  }

  if (!emitter.Flush()) return FinishNoConsumers(sink);
  sink->Close(Status::OK());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

Status RunHashJoin(const JoinNode& node, PageSource* build, PageSource* probe,
                   ExecContext* ctx, PageSink* sink) {
  const Schema& build_schema = node.build()->output_schema();
  const Schema& probe_schema = node.probe()->output_schema();
  const std::size_t build_width = build_schema.row_width();
  const std::size_t probe_width = probe_schema.row_width();
  const std::size_t build_key_off = build_schema.offset(node.build_key());
  const std::size_t probe_key_off = probe_schema.offset(node.probe_key());
  constexpr uint32_t kNone = FlatTable::kNone;

  // Build phase: rows are copied page by page into an arena. A flat
  // directory maps each distinct key to its first and last build row;
  // next[] chains the rows sharing a key in build order.
  std::vector<uint8_t> arena;
  FlatTable directory(sizeof(int64_t));
  std::vector<uint32_t> head, tail;  // by directory id
  std::vector<uint32_t> next;        // by build row
  while (PageRef page = build->Next()) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink, {build, probe});
    const std::size_t n = page->row_count();
    if (n == 0) continue;
    const uint8_t* rows = page->RowAt(0);
    arena.insert(arena.end(), rows, rows + n * build_width);
    for (std::size_t i = 0; i < n; ++i) {
      const uint32_t row = static_cast<uint32_t>(next.size());
      next.push_back(kNone);
      const uint32_t id = directory.FindOrInsertWord(
          LoadWord(rows + i * build_width + build_key_off));
      if (id == head.size()) {
        head.push_back(row);
        tail.push_back(row);
      } else {
        next[tail[id]] = row;
        tail[id] = row;
      }
    }
  }
  if (!build->FinalStatus().ok()) {
    Status st = build->FinalStatus();
    // The probe source was never drained: cancel it, or its producer
    // eventually blocks on a full buffer no one will ever empty (and, in
    // push-SP, starves every other consumer of that sharing session).
    probe->CancelConsumer();
    sink->Close(st);
    return st;
  }

  // Probe phase: each output row is the build row's bytes followed by the
  // probe row's, matches in build order.
  PageEmitter emitter(node.output_schema().row_width(), sink);
  while (PageRef page = probe->Next()) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink, {probe});
    const std::size_t n = page->row_count();
    if (n == 0) continue;
    const uint8_t* rows = page->RowAt(0);
    for (std::size_t i = 0; i < n; ++i) {
      const uint8_t* row = rows + i * probe_width;
      const uint32_t id =
          directory.FindWord(LoadWord(row + probe_key_off));
      if (id == kNone) continue;
      for (uint32_t b = head[id]; b != kNone; b = next[b]) {
        uint8_t* slot = emitter.AppendSlot();
        if (slot == nullptr) return FinishNoConsumers(sink, {probe});
        std::memcpy(slot, arena.data() + std::size_t(b) * build_width,
                    build_width);
        std::memcpy(slot + build_width, row, probe_width);
      }
    }
  }
  if (!probe->FinalStatus().ok()) {
    Status st = probe->FinalStatus();
    sink->Close(st);
    return st;
  }

  if (!emitter.Flush()) return FinishNoConsumers(sink);
  sink->Close(Status::OK());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Hash aggregate
// ---------------------------------------------------------------------------

Status RunHashAggregate(const AggregateNode& node, PageSource* input,
                        ExecContext* ctx, PageSink* sink) {
  const Schema& in_schema = node.child()->output_schema();
  const std::size_t stride = in_schema.row_width();
  const auto& aggs = node.aggs();
  const std::size_t n_aggs = aggs.size();

  // The group key is the group-by columns' bytes packed back to back.
  // A global aggregate (no group-by) is one group and never touches the
  // table: every row's group id stays 0.
  const bool grouped = !node.group_by().empty();
  std::vector<ByteRange> key_ranges;
  std::size_t key_width = 0;
  for (auto g : node.group_by()) {
    AddRange(&key_ranges, in_schema.offset(g), key_width,
             in_schema.column(g).width);
    key_width += in_schema.column(g).width;
  }
  FlatTable groups(key_width);
  // Bytes past key_width stay zero: a narrow key reads as a padded word.
  std::vector<uint8_t> key_buf(std::max(key_width, sizeof(uint64_t)));

  // Flat state, slot gid * n_aggs + a: sum/min/max in `acc`, rows folded
  // in `count` (kAvg uses both). For min/max, count == 0 means "no value
  // yet", so the first value seeds the state.
  std::size_t n_groups = 0;
  std::vector<double> acc;
  std::vector<int64_t> count;
  std::vector<uint32_t> gids;  // per row of the current page
  std::vector<double> vals;    // one AggSpec's input, per row

  while (PageRef page = input->Next()) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink, {input});
    const std::size_t n = page->row_count();
    if (n == 0) continue;
    const uint8_t* rows = page->RowAt(0);

    // Group id of every row, then grow the state to cover new groups.
    gids.assign(n, 0);
    if (grouped) {
      for (std::size_t i = 0; i < n; ++i) {
        CopyRanges(key_ranges, rows + i * stride, key_buf.data());
        gids[i] = groups.wide()
                      ? groups.FindOrInsertBytes(key_buf.data())
                      : groups.FindOrInsertWord(LoadWord(key_buf.data()));
      }
      n_groups = groups.size();
    } else {
      n_groups = 1;
    }
    acc.resize(n_groups * n_aggs, 0.0);
    count.resize(n_groups * n_aggs, 0);

    // One batched evaluation and one tight update loop per AggSpec.
    vals.resize(n);
    for (std::size_t a = 0; a < n_aggs; ++a) {
      const AggSpec& spec = aggs[a];
      double* acc_a = acc.data() + a;
      int64_t* count_a = count.data() + a;
      auto state_of = [&](std::size_t i) { return gids[i] * n_aggs; };
      if (spec.func != AggSpec::Func::kCount) {
        spec.input->EvalDoubleBatch(rows, stride, n, in_schema, vals.data());
      }
      switch (spec.func) {
        case AggSpec::Func::kCount:
          for (std::size_t i = 0; i < n; ++i) ++count_a[state_of(i)];
          break;
        case AggSpec::Func::kSum:
        case AggSpec::Func::kAvg:
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t s = state_of(i);
            acc_a[s] += vals[i];
            ++count_a[s];
          }
          break;
        case AggSpec::Func::kMin:
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t s = state_of(i);
            if (count_a[s] == 0 || vals[i] < acc_a[s]) acc_a[s] = vals[i];
            ++count_a[s];
          }
          break;
        case AggSpec::Func::kMax:
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t s = state_of(i);
            if (count_a[s] == 0 || vals[i] > acc_a[s]) acc_a[s] = vals[i];
            ++count_a[s];
          }
          break;
      }
    }
  }
  if (!input->FinalStatus().ok()) {
    Status st = input->FinalStatus();
    sink->Close(st);
    return st;
  }

  // Emit one row per group: packed group key bytes, then aggregate values.
  const Schema& out_schema = node.output_schema();
  PageEmitter emitter(out_schema.row_width(), sink);
  for (std::size_t gid = 0; gid < n_groups; ++gid) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink);
    uint8_t* slot = emitter.AppendSlot();
    if (slot == nullptr) return FinishNoConsumers(sink);
    if (grouped) {
      std::memcpy(slot, groups.key(static_cast<uint32_t>(gid)), key_width);
    }
    std::size_t off = key_width;
    for (std::size_t a = 0; a < n_aggs; ++a) {
      const std::size_t s = gid * n_aggs + a;
      switch (aggs[a].func) {
        case AggSpec::Func::kCount: {
          int64_t c = count[s];
          std::memcpy(slot + off, &c, sizeof(c));
          off += sizeof(c);
          break;
        }
        case AggSpec::Func::kAvg: {
          double v = count[s] == 0 ? 0.0 : acc[s] / double(count[s]);
          std::memcpy(slot + off, &v, sizeof(v));
          off += sizeof(v);
          break;
        }
        default: {
          double v = acc[s];
          std::memcpy(slot + off, &v, sizeof(v));
          off += sizeof(v);
          break;
        }
      }
    }
  }
  if (!emitter.Flush()) return FinishNoConsumers(sink);
  sink->Close(Status::OK());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

Status RunSort(const SortNode& node, PageSource* input, ExecContext* ctx,
               PageSink* sink) {
  const Schema& schema = node.output_schema();
  const std::size_t width = schema.row_width();

  std::vector<uint8_t> rows;
  while (PageRef page = input->Next()) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink, {input});
    if (page->row_count() == 0) continue;
    rows.insert(rows.end(), page->RowAt(0),
                page->RowAt(0) + page->row_count() * width);
  }
  if (!input->FinalStatus().ok()) {
    Status st = input->FinalStatus();
    sink->Close(st);
    return st;
  }

  std::size_t n = width == 0 ? 0 : rows.size() / width;
  std::vector<uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);

  auto compare_rows = [&](uint32_t a, uint32_t b) {
    TupleRef ra(rows.data() + std::size_t(a) * width, &schema);
    TupleRef rb(rows.data() + std::size_t(b) * width, &schema);
    for (const auto& k : node.keys()) {
      int cmp = 0;
      switch (schema.column(k.column).type) {
        case ValueType::kInt64: {
          int64_t va = ra.GetInt64(k.column), vb = rb.GetInt64(k.column);
          cmp = va < vb ? -1 : (va > vb ? 1 : 0);
          break;
        }
        case ValueType::kDouble: {
          double va = ra.GetDouble(k.column), vb = rb.GetDouble(k.column);
          cmp = va < vb ? -1 : (va > vb ? 1 : 0);
          break;
        }
        case ValueType::kDate: {
          auto va = ra.GetDate(k.column), vb = rb.GetDate(k.column);
          cmp = va < vb ? -1 : (va > vb ? 1 : 0);
          break;
        }
        case ValueType::kString: {
          cmp = ra.GetString(k.column).compare(rb.GetString(k.column));
          break;
        }
      }
      if (cmp != 0) return k.ascending ? cmp < 0 : cmp > 0;
    }
    // Total order: break key ties on raw row bytes so top-k (LIMIT)
    // selects a deterministic set, matching the reference executor.
    return std::memcmp(rows.data() + std::size_t(a) * width,
                       rows.data() + std::size_t(b) * width, width) < 0;
  };
  if (node.limit() > 0 && node.limit() < n) {
    // Top-k: only the first `limit` rows in key order are needed.
    std::partial_sort(order.begin(), order.begin() + node.limit(),
                      order.end(), compare_rows);
    order.resize(node.limit());
  } else {
    std::stable_sort(order.begin(), order.end(), compare_rows);
  }

  PageEmitter emitter(width, sink);
  for (uint32_t idx : order) {
    if (ctx->StopRequested()) return FinishStopped(ctx, sink);
    if (!emitter.AppendRow(rows.data() + std::size_t(idx) * width)) {
      return FinishNoConsumers(sink);
    }
  }
  if (!emitter.Flush()) return FinishNoConsumers(sink);
  sink->Close(Status::OK());
  return Status::OK();
}

}  // namespace sharing
