#include "cjoin/pipeline.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "storage/page.h"

namespace sharing {

namespace {

Table* FactTableOrDie(Catalog* catalog, const std::string& name) {
  auto fact_or = catalog->GetTable(name);
  SHARING_CHECK(fact_or.ok()) << fact_or.status().ToString();
  return fact_or.value();
}

bool Uses(const std::vector<std::size_t>& levels, std::size_t level) {
  return std::find(levels.begin(), levels.end(), level) != levels.end();
}

}  // namespace

CJoinPipeline::CJoinPipeline(Catalog* catalog, const std::string& fact_table,
                             std::vector<CJoinLevelSpec> levels,
                             CJoinOptions options, MetricsRegistry* metrics,
                             std::shared_ptr<IoScheduler> scheduler,
                             std::size_t prefetch_depth)
    : catalog_(catalog),
      fact_(FactTableOrDie(catalog, fact_table)),
      options_(options),
      metrics_(metrics),
      fact_tuples_in_(metrics->GetCounter(metrics::kCjoinFactTuplesIn)),
      tuples_out_(metrics->GetCounter(metrics::kCjoinTuplesOut)),
      tuples_dropped_(metrics->GetCounter(metrics::kCjoinTuplesDropped)),
      queries_admitted_(metrics->GetCounter(metrics::kCjoinQueriesAdmitted)),
      queries_completed_(metrics->GetCounter(metrics::kCjoinQueriesCompleted)),
      bitmap_and_ops_(metrics->GetCounter(metrics::kCjoinBitmapAndOps)),
      admission_epochs_(metrics->GetCounter(metrics::kCjoinAdmissionEpochs)),
      admission_micros_(metrics->GetCounter(metrics::kCjoinAdmissionMicros)),
      cursor_(fact_, metrics, std::move(scheduler), prefetch_depth) {
  bitmap_words_ = (options_.max_queries + 63) / 64;
  free_bits_.reserve(options_.max_queries);
  for (std::size_t b = options_.max_queries; b > 0; --b) {
    free_bits_.push_back(b - 1);
  }

  levels_.reserve(levels.size());
  for (auto& spec : levels) {
    auto dim_or = catalog->GetTable(spec.dim_table);
    SHARING_CHECK(dim_or.ok()) << dim_or.status().ToString();
    const Table* dim = dim_or.value();
    SHARING_CHECK(spec.fk_col_in_fact < fact_->schema().num_columns());
    SHARING_CHECK(fact_->schema().column(spec.fk_col_in_fact).type ==
                  ValueType::kInt64)
        << "fact fk must be int64";
    Level level;
    level.spec = spec;
    level.fk_offset = fact_->schema().offset(spec.fk_col_in_fact);
    level.ht = std::make_unique<DimensionHashTable>(dim, spec.pk_col_in_dim,
                                                    options_.max_queries);
    levels_.push_back(std::move(level));
  }

  // A fixed set: the cap equals the initial size, so the pool never
  // grows. Each worker runs one WorkerLoop until shutdown.
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  workers_ = std::make_unique<ElasticThreadPool>(workers, workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_->Submit([this] { WorkerLoop(); });
  }
}

CJoinPipeline::~CJoinPipeline() {
  {
    std::lock_guard<std::mutex> lock(driver_mutex_);
    shutdown_ = true;
  }
  driver_cv_.notify_all();
  workers_->Shutdown();

  // Abort anything still admitted or pending.
  std::vector<ActiveQueryRef> leftovers;
  {
    std::lock_guard<std::mutex> lock(driver_mutex_);
    leftovers = std::move(active_);
    leftovers.insert(leftovers.end(), pending_.begin(), pending_.end());
    pending_.clear();
  }
  for (auto& q : leftovers) {
    SignalDone(q, Status::Aborted("pipeline shut down"));
  }
}

// ---------------------------------------------------------------------------
// Query construction & admission
// ---------------------------------------------------------------------------

StatusOr<CJoinPipeline::ActiveQueryRef> CJoinPipeline::BuildActiveQuery(
    const StarQuerySpec& spec, ExecContextRef ctx, PageSinkRef sink) const {
  if (spec.fact_table != fact_->name()) {
    return Status::InvalidArgument("spec fact table '" + spec.fact_table +
                                   "' does not match pipeline fact '" +
                                   fact_->name() + "'");
  }
  auto q = std::make_shared<ActiveQuery>();
  q->spec = spec;
  q->ctx = std::move(ctx);
  q->sink = std::move(sink);

  Schema schema;
  SHARING_ASSIGN_OR_RETURN(schema, spec.OutputSchema(*catalog_));
  q->output_schema = std::move(schema);
  q->builder = std::make_shared<RowPage>(q->output_schema.row_width());

  // Map every dimension clause onto a pipeline level.
  q->levels_used.reserve(spec.dims.size());
  for (const auto& dim : spec.dims) {
    bool found = false;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const auto& ls = levels_[l].spec;
      if (ls.dim_table == dim.dim_table &&
          ls.fk_col_in_fact == dim.fk_col_in_fact &&
          ls.pk_col_in_dim == dim.pk_col_in_dim) {
        q->levels_used.push_back(l);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "no pipeline level joins " + dim.dim_table + " via fact column " +
          std::to_string(dim.fk_col_in_fact));
    }
  }

  // Compile the output-assembly program.
  const Schema& fact_schema = fact_->schema();
  std::size_t dst = 0;
  for (int block : spec.NormalizedOrder()) {
    if (block < 0) {
      for (auto c : spec.fact_projection) {
        q->copy_ops.push_back(CopyOp{-1, fact_schema.offset(c), dst,
                                     fact_schema.column(c).width});
        dst += fact_schema.column(c).width;
      }
    } else {
      const StarDim& dim = spec.dims[block];
      Table* dim_table;
      SHARING_ASSIGN_OR_RETURN(dim_table, catalog_->GetTable(dim.dim_table));
      const Schema& ds = dim_table->schema();
      int level = static_cast<int>(q->levels_used[block]);
      for (auto c : dim.projection) {
        q->copy_ops.push_back(
            CopyOp{level, ds.offset(c), dst, ds.column(c).width});
        dst += ds.column(c).width;
      }
    }
  }
  SHARING_CHECK(dst == q->output_schema.row_width());

  static const std::string kTrueCanonical = TruePredicate()->Canonical();
  q->trivial_fact_pred =
      spec.fact_predicate == nullptr ||
      spec.fact_predicate->Canonical() == kTrueCanonical;

  // Admission phase 1: each dimension predicate becomes a row selection
  // over its level's flat table (the first use loads the table).
  q->selections.reserve(spec.dims.size());
  for (std::size_t i = 0; i < spec.dims.size(); ++i) {
    DimensionHashTable::Selection sel;
    SHARING_ASSIGN_OR_RETURN(
        sel, levels_[q->levels_used[i]].ht->Select(*spec.dims[i].predicate));
    q->selections.push_back(std::move(sel));
  }
  return q;
}

Status CJoinPipeline::ExecuteQuery(const StarQuerySpec& spec,
                                   ExecContextRef ctx, PageSinkRef sink) {
  auto q_or = BuildActiveQuery(spec, std::move(ctx), sink);
  if (!q_or.ok()) {
    sink->Close(q_or.status());
    return q_or.status();
  }
  ActiveQueryRef q = std::move(q_or).value();
  {
    std::lock_guard<std::mutex> lock(driver_mutex_);
    if (shutdown_) {
      Status st = Status::Aborted("pipeline shut down");
      q->sink->Close(st);
      return st;
    }
    pending_.push_back(q);
  }
  driver_cv_.notify_all();

  std::unique_lock<std::mutex> lock(q->done_mutex);
  q->done_cv.wait(lock, [&] { return q->done; });
  return q->final_status;
}

void CJoinPipeline::DropStopped(std::vector<ActiveQueryRef>* dropped,
                                std::vector<ActiveQueryRef>* finished) {
  // Pending queries were never admitted: they hold no bits.
  std::erase_if(pending_, [&](const ActiveQueryRef& q) {
    if (!q->ctx->StopRequested()) return false;
    dropped->push_back(q);
    return true;
  });

  // Admitted queries give up the positions never claimed for them, the
  // way a failed page is accounted; pages already claimed finish the
  // count.
  std::vector<ActiveQueryRef> leaving;
  cursor_.ForEachRider([&](const ActiveQueryRef& q) {
    if (q->muted.load(std::memory_order_relaxed) ||
        q->ctx->StopRequested()) {
      leaving.push_back(q);
    }
  });
  for (auto& q : leaving) {
    q->muted.store(true, std::memory_order_relaxed);
    const auto undelivered = static_cast<int64_t>(cursor_.Leave(q));
    if (q->pages_remaining.fetch_sub(undelivered,
                                     std::memory_order_acq_rel) ==
        undelivered) {
      finished->push_back(std::move(q));
    }
  }
}

void CJoinPipeline::AdmitPending(std::vector<ActiveQueryRef>* finished) {
  if (pending_.empty() || free_bits_.empty()) return;

  // Admission phase 2: flip each query's bits on before the first claim
  // that includes it. No page waits for this.
  Stopwatch timer;
  {
    TraceSpan span("cjoin", "cjoin.admit");
    admission_epochs_->Increment();
    const auto num_pages = static_cast<int64_t>(fact_->num_pages());
    int64_t admitted = 0;
    while (!pending_.empty() && !free_bits_.empty()) {
      ActiveQueryRef q = std::move(pending_.front());
      pending_.pop_front();
      q->bit = free_bits_.back();
      free_bits_.pop_back();
      active_.push_back(q);
      for (std::size_t i = 0; i < q->levels_used.size(); ++i) {
        levels_[q->levels_used[i]].ht->Grant(q->bit, q->selections[i]);
      }
      for (std::size_t l = 0; l < levels_.size(); ++l) {
        if (!Uses(q->levels_used, l)) levels_[l].ht->SetNeutral(q->bit, true);
      }
      q->pages_remaining.store(num_pages, std::memory_order_release);
      queries_admitted_->Increment();
      ++admitted;
      if (num_pages == 0) {
        // Degenerate: nothing to scan; complete immediately.
        finished->push_back(std::move(q));
      } else {
        cursor_.Join(std::move(q));
      }
    }
    span.AddArg("queries", admitted);
  }
  admission_micros_->Add(timer.ElapsedMicros());
}

// ---------------------------------------------------------------------------
// Workers: the preprocessor's circular scan
// ---------------------------------------------------------------------------

void CJoinPipeline::WorkerLoop() {
  std::vector<ActiveQueryRef> riders;  // reused across claims
  for (;;) {
    std::vector<ActiveQueryRef> dropped, finished;
    std::optional<uint64_t> seq;
    {
      std::unique_lock<std::mutex> lock(driver_mutex_);
      for (;;) {
        if (shutdown_) return;
        DropStopped(&dropped, &finished);
        AdmitPending(&finished);
        // Each admitted query is owed exactly one full cycle of fact
        // positions. Completing it removes the query from the cursor;
        // it stays admitted until its last claimed page is processed, so
        // late pages never meet recycled bits.
        seq = cursor_.Claim(&riders);
        if (seq || !dropped.empty() || !finished.empty()) break;
        driver_cv_.wait(lock);
      }
    }
    for (auto& q : dropped) SignalDone(q, q->ctx->TerminalStatus());
    for (auto& q : finished) FinalizeQuery(q);
    if (seq) {
      ProcessPage(*seq, riders);
      riders.clear();
    }
  }
}

// ---------------------------------------------------------------------------
// Page processing: shared selections, hash-join chain, distribution
// ---------------------------------------------------------------------------

void CJoinPipeline::ProcessPage(uint64_t seq,
                                const std::vector<ActiveQueryRef>& queries) {
  TraceSpan span("cjoin", "cjoin.page");
  span.AddArg("queries", static_cast<int64_t>(queries.size()));
  auto page_or = cursor_.Fetch(seq);
  if (!page_or.ok()) {
    for (const auto& q : queries) {
      q->muted.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> fail_lock(q->fail_mutex);
      if (q->fail_status.ok()) q->fail_status = page_or.status();
    }
    CompletePage(queries);
    return;
  }
  ScanPageRef page = std::move(page_or).value();
  const uint8_t* frame = page->data();
  const uint32_t n_rows = page_layout::RowCount(frame);
  span.AddArg("rows", n_rows);
  const Schema& fact_schema = fact_->schema();
  const std::size_t stride = fact_schema.row_width();
  const std::size_t words = bitmap_words_;
  const uint8_t* rows = page_layout::RowAt(frame, 0);

  // Shared selection (paper Fig. 1b's σ on the fact input): each row's
  // starting bitmap holds the claim's queries whose fact predicate it
  // satisfies, evaluated one query at a time over the whole page. Muted
  // queries start empty.
  std::vector<uint64_t> bits(std::size_t(n_rows) * words, 0);
  std::vector<uint64_t> trivial(words, 0);
  std::vector<uint32_t> sel(n_rows);
  for (const auto& q : queries) {
    if (q->muted.load(std::memory_order_relaxed)) continue;
    const std::size_t w = q->bit >> 6;
    const uint64_t mask = uint64_t{1} << (q->bit & 63);
    if (q->trivial_fact_pred) {
      trivial[w] |= mask;
      continue;
    }
    std::iota(sel.begin(), sel.end(), 0u);
    const std::size_t kept = q->spec.fact_predicate->EvalBoolBatch(
        rows, stride, fact_schema, sel.data(), n_rows);
    for (std::size_t i = 0; i < kept; ++i) {
      bits[std::size_t(sel[i]) * words + w] |= mask;
    }
  }

  // The rows still alive, compacted after every level.
  std::vector<uint32_t>& live = sel;
  live.clear();
  for (uint32_t r = 0; r < n_rows; ++r) {
    uint64_t any = 0;
    for (std::size_t w = 0; w < words; ++w) {
      any |= (bits[std::size_t(r) * words + w] |= trivial[w]);
    }
    if (any != 0) live.push_back(r);
  }

  // Shared hash-join chain with bitwise AND, over the levels any of the
  // claim's queries joins. matched[l * n_rows + r]: row r's dimension
  // tuple at level l.
  std::vector<bool> probe(levels_.size(), false);
  for (const auto& q : queries) {
    for (std::size_t l : q->levels_used) probe[l] = true;
  }
  std::vector<const uint8_t*> matched(levels_.size() * n_rows);
  std::vector<uint64_t> pass(words), neutral(words);
  int64_t and_ops = 0;
  for (std::size_t l = 0; l < levels_.size() && !live.empty(); ++l) {
    if (!probe[l]) continue;
    const DimensionHashTable& ht = *levels_[l].ht;
    for (std::size_t w = 0; w < words; ++w) {
      neutral[w] = ht.NeutralBits(w);
      pass[w] = ht.AllRowsBits(w) | neutral[w];
    }
    const std::size_t fk_offset = levels_[l].fk_offset;
    std::size_t kept = 0;
    for (uint32_t r : live) {
      int64_t fk;
      std::memcpy(&fk, rows + std::size_t(r) * stride + fk_offset,
                  sizeof(fk));
      const uint32_t id = ht.Find(fk);
      uint64_t* row_bits = bits.data() + std::size_t(r) * words;
      uint64_t any = 0;
      if (id != DimensionHashTable::kNoRow) {
        matched[l * n_rows + r] = ht.row(id);
        for (std::size_t w = 0; w < words; ++w) {
          any |= (row_bits[w] &= ht.RowBits(id, w) | pass[w]);
        }
      } else {
        for (std::size_t w = 0; w < words; ++w) {
          any |= (row_bits[w] &= neutral[w]);
        }
      }
      if (any != 0) live[kept++] = r;
    }
    and_ops += static_cast<int64_t>(live.size());
    live.resize(kept);
  }
  const int64_t dropped = n_rows - static_cast<int64_t>(live.size());

  // Distributor: route each query's surviving rows, under one emit-lock
  // acquisition per query with output.
  int64_t emitted = 0;
  for (const auto& q : queries) {
    const std::size_t w = q->bit >> 6;
    const uint64_t mask = uint64_t{1} << (q->bit & 63);
    std::unique_lock<std::mutex> emit_lock;  // taken at the first match
    for (uint32_t r : live) {
      if ((bits[std::size_t(r) * words + w] & mask) == 0) continue;
      if (!emit_lock.owns_lock()) {
        if (q->muted.load(std::memory_order_relaxed)) break;
        if (q->ctx->StopRequested()) {
          q->muted.store(true, std::memory_order_relaxed);
          break;
        }
        emit_lock = std::unique_lock<std::mutex>(q->emit_mutex);
      }
      uint8_t* slot = q->builder->AppendSlot();
      if (slot == nullptr) {
        PageRef full = std::move(q->builder);
        q->builder = std::make_shared<RowPage>(q->output_schema.row_width());
        if (!q->sink->Put(std::move(full))) {
          q->muted.store(true, std::memory_order_relaxed);
          break;
        }
        slot = q->builder->AppendSlot();
      }
      const uint8_t* fact_row = rows + std::size_t(r) * stride;
      for (const auto& op : q->copy_ops) {
        const uint8_t* src =
            op.level < 0 ? fact_row + op.src_off
                         : matched[op.level * n_rows + r] + op.src_off;
        std::memcpy(slot + op.dst_off, src, op.width);
      }
      ++emitted;
    }
  }
  page.reset();  // the looping-scan release, before the queries complete

  fact_tuples_in_->Add(n_rows);
  tuples_dropped_->Add(dropped);
  tuples_out_->Add(emitted);
  bitmap_and_ops_->Add(and_ops);
  CompletePage(queries);
}

void CJoinPipeline::CompletePage(const std::vector<ActiveQueryRef>& queries) {
  // A query finishes when it has seen every fact page exactly once since
  // admission (or gave up the rest of its cycle).
  for (const auto& q : queries) {
    if (q->pages_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      FinalizeQuery(q);
    }
  }
}

void CJoinPipeline::FinalizeQuery(const ActiveQueryRef& q) {
  // Departure: clear exactly the bits admission set. No claimed page still
  // reads them on this query's behalf; the bit is reusable only afterwards.
  for (std::size_t i = 0; i < q->levels_used.size(); ++i) {
    levels_[q->levels_used[i]].ht->Revoke(q->bit, q->selections[i]);
  }
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    if (!Uses(q->levels_used, l)) levels_[l].ht->SetNeutral(q->bit, false);
  }
  {
    std::lock_guard<std::mutex> lock(driver_mutex_);
    std::erase(active_, q);
    free_bits_.push_back(q->bit);
  }
  queries_completed_->Increment();

  Status final = Status::OK();
  if (q->muted.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> fail_lock(q->fail_mutex);
    final = q->fail_status;
    if (final.ok()) final = q->ctx->TerminalStatus();
    if (final.ok()) final = Status::Aborted("query abandoned");
  }
  SignalDone(q, std::move(final));
  // A freed bit may unblock pending admissions on an idle worker.
  driver_cv_.notify_all();
}

void CJoinPipeline::SignalDone(const ActiveQueryRef& q, Status final) {
  // Flush the last partial page, then close.
  if (final.ok()) {
    std::lock_guard<std::mutex> emit_lock(q->emit_mutex);
    if (!q->builder->empty()) {
      PageRef last = std::move(q->builder);
      q->builder = std::make_shared<RowPage>(q->output_schema.row_width());
      q->sink->Put(std::move(last));
    }
  }
  q->sink->Close(final);
  {
    std::lock_guard<std::mutex> lock(q->done_mutex);
    q->done = true;
    q->final_status = std::move(final);
  }
  q->done_cv.notify_all();
}

}  // namespace sharing
