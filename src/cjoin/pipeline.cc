#include "cjoin/pipeline.h"

#include <cstring>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "storage/tuple.h"

namespace sharing {

namespace {

Table* FactTableOrDie(Catalog* catalog, const std::string& name) {
  auto fact_or = catalog->GetTable(name);
  SHARING_CHECK(fact_or.ok()) << fact_or.status().ToString();
  return fact_or.value();
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
      readahead_(fact_, std::move(scheduler), prefetch_depth) {
  bitmap_words_ = (options_.max_queries + 63) / 64;
  slots_.resize(options_.max_queries);
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

  workers_ = std::make_unique<ThreadPool>(options_.workers);
  driver_ = std::thread([this] { DriverLoop(); });
}

CJoinPipeline::~CJoinPipeline() {
  {
    std::lock_guard<std::mutex> lock(driver_mutex_);
    shutdown_ = true;
  }
  driver_cv_.notify_all();
  if (driver_.joinable()) driver_.join();
  workers_->Shutdown();

  // Abort anything still admitted or pending.
  std::vector<ActiveQueryRef> leftovers;
  {
    std::unique_lock<std::shared_mutex> epoch(epoch_mutex_);
    leftovers = active_;
    active_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(driver_mutex_);
    for (auto& q : pending_) leftovers.push_back(q);
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

void CJoinPipeline::AdmitPending() {
  std::vector<ActiveQueryRef> batch;
  {
    std::lock_guard<std::mutex> lock(driver_mutex_);
    std::size_t available;
    {
      // free_bits_ is epoch-protected; a quick shared peek is enough since
      // only the driver consumes bits.
      std::shared_lock<std::shared_mutex> epoch(epoch_mutex_);
      available = free_bits_.size();
    }
    while (!pending_.empty() && batch.size() < available) {
      batch.push_back(pending_.front());
      pending_.pop_front();
    }
  }
  if (batch.empty()) return;

  Stopwatch timer;
  {
    // Covers the wait for the exclusive epoch lock and the dimension
    // scans under it: the time no fact page can be processed.
    TraceSpan span("cjoin", "cjoin.admit");
    span.AddArg("queries", static_cast<int64_t>(batch.size()));
    std::unique_lock<std::shared_mutex> epoch(epoch_mutex_);
    admission_epochs_->Increment();
    for (auto& q : batch) {
      SHARING_CHECK(!free_bits_.empty());
      q->bit = free_bits_.back();
      free_bits_.pop_back();

      Status st = Status::OK();
      for (std::size_t i = 0; i < q->levels_used.size() && st.ok(); ++i) {
        Level& level = levels_[q->levels_used[i]];
        st = level.ht->AdmitQuery(q->bit, *q->spec.dims[i].predicate);
      }
      if (!st.ok()) {
        // Roll back this query's bits and report the failure.
        for (auto l : q->levels_used) levels_[l].ht->RemoveQuery(q->bit);
        free_bits_.push_back(q->bit);
        epoch.unlock();
        SignalDone(q, st);
        epoch.lock();
        continue;
      }

      // Neutral bits: levels this query does not join must pass it through.
      for (std::size_t l = 0; l < levels_.size(); ++l) {
        bool used = false;
        for (auto ul : q->levels_used) used |= (ul == l);
        QuerySet* neutral = levels_[l].ht->mutable_neutral_bits();
        if (used) {
          neutral->Clear(q->bit);
          ++levels_[l].live_queries;
        } else {
          neutral->Set(q->bit);
        }
      }

      q->pages_remaining.store(static_cast<int64_t>(fact_->num_pages()),
                               std::memory_order_release);
      q->dispatches_left = static_cast<int64_t>(fact_->num_pages());
      slots_[q->bit] = q;
      active_.push_back(q);
      active_count_.fetch_add(1, std::memory_order_relaxed);
      queries_admitted_->Increment();

      if (fact_->num_pages() == 0) {
        // Degenerate: nothing to scan; complete immediately.
        epoch.unlock();
        FinalizeQuery(q, Status::OK());
        epoch.lock();
      } else {
        dispatching_.push_back(q);
      }
    }
  }
  admission_micros_->Add(timer.ElapsedMicros());
}

// ---------------------------------------------------------------------------
// Driver: the preprocessor's circular scan
// ---------------------------------------------------------------------------

void CJoinPipeline::DriverLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(driver_mutex_);
      driver_cv_.wait(lock, [&] {
        return shutdown_ || !pending_.empty() || !dispatching_.empty();
      });
      if (shutdown_) return;
    }

    AdmitPending();
    if (dispatching_.empty()) continue;

    const uint64_t seq = fact_seq_++;
    readahead_.Ahead(seq);
    auto guard_or = fact_->buffer_pool()->FetchPage(
        fact_->page_id(seq % fact_->num_pages()));
    if (!guard_or.ok()) {
      SHARING_LOG(Error) << "CJOIN fact scan failed: "
                         << guard_or.status().ToString();
      // Fail every query still owed dispatches: skipping a position would
      // otherwise hand them a duplicated page at the wrap and silently
      // drop the failed one from their cycle.
      for (auto& q : dispatching_) {
        q->muted.store(true, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> fail_lock(q->fail_mutex);
          if (q->fail_status.ok()) q->fail_status = guard_or.status();
        }
        int64_t undelivered = q->dispatches_left;
        if (q->pages_remaining.fetch_sub(
                undelivered, std::memory_order_acq_rel) == undelivered) {
          FinalizeQuery(q, guard_or.status());
        }
        // Else: in-flight tasks finish the accounting and finalize with
        // fail_status via ProcessPage.
      }
      dispatching_.clear();
      continue;
    }

    // Respect the in-flight window (prefetch bound).
    {
      std::unique_lock<std::mutex> lock(inflight_mutex_);
      inflight_cv_.wait(lock, [&] {
        return inflight_ < options_.max_in_flight_pages;
      });
      ++inflight_;
    }

    // Snapshot the dispatch list: each query is owed exactly one full
    // cycle of fact pages. Completing the cycle removes it here (it stays
    // admitted until its last task is processed, so late tasks never meet
    // recycled bits).
    auto task = std::make_shared<PageTask>();
    task->guard = std::move(guard_or).value();
    task->queries = dispatching_;
    for (auto& q : dispatching_) --q->dispatches_left;
    std::erase_if(dispatching_,
                  [](const ActiveQueryRef& q) {
                    return q->dispatches_left <= 0;
                  });

    // A fact table larger than the pool misses on every page of every
    // cycle under the clock, which is LRU-like; releasing each consumed
    // page as the next victim (MRU) keeps a stable subset resident and
    // leaves the dimension pages alone (DESIGN.md decision #16).
    const bool release_as_next_victim =
        fact_->num_pages() > fact_->buffer_pool()->num_frames();
    workers_->Submit([this, task, release_as_next_victim] {
      ProcessPage(task);
      if (release_as_next_victim) task->guard.ReleaseAsNextVictim();
      {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        --inflight_;
      }
      inflight_cv_.notify_one();
    });
  }
}

// ---------------------------------------------------------------------------
// Page processing: shared selections, hash-join chain, distribution
// ---------------------------------------------------------------------------

void CJoinPipeline::ProcessPage(std::shared_ptr<PageTask> task) {
  const Schema& fact_schema = fact_->schema();
  const uint8_t* frame = task->guard.data();
  const uint32_t n_rows = page_layout::RowCount(frame);
  TraceSpan span("cjoin", "cjoin.page");
  span.AddArg("rows", n_rows);
  span.AddArg("queries", static_cast<int64_t>(task->queries.size()));

  std::vector<uint64_t> bits(bitmap_words_);
  std::vector<const DimensionHashTable::Entry*> matched(levels_.size(),
                                                        nullptr);
  std::vector<uint64_t> combined(bitmap_words_);
  int64_t and_ops = 0;
  int64_t dropped = 0;
  int64_t emitted = 0;

  {
    std::shared_lock<std::shared_mutex> epoch(epoch_mutex_);

    // Which levels matter for this batch (any live query joins them)?
    std::vector<std::size_t> probe_levels;
    probe_levels.reserve(levels_.size());
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      if (levels_[l].live_queries > 0) probe_levels.push_back(l);
    }

    for (uint32_t r = 0; r < n_rows; ++r) {
      const uint8_t* row = page_layout::RowAt(frame, r);
      TupleRef fact_row(row, &fact_schema);

      // Shared selection: build the initial bitmap from the queries' fact
      // predicates (paper Fig. 1b's σ on the fact input).
      std::fill(bits.begin(), bits.end(), 0);
      bool any = false;
      for (const auto& q : task->queries) {
        if (q->trivial_fact_pred ||
            q->spec.fact_predicate->EvalBool(fact_row)) {
          bits[q->bit >> 6] |= (1ull << (q->bit & 63));
          any = true;
        }
      }
      if (!any) {
        ++dropped;
        continue;
      }

      // Shared hash-join chain with bitwise AND.
      bool alive = true;
      for (std::size_t l : probe_levels) {
        const Level& level = levels_[l];
        int64_t fk;
        std::memcpy(&fk, row + level.fk_offset, sizeof(fk));
        const auto* entry = level.ht->Probe(fk);
        matched[l] = entry;
        const uint64_t* neutral = level.ht->neutral_bits().words();
        if (entry != nullptr) {
          const uint64_t* ebits = entry->bits.words();
          for (std::size_t w = 0; w < bitmap_words_; ++w) {
            combined[w] = ebits[w] | neutral[w];
          }
        } else {
          for (std::size_t w = 0; w < bitmap_words_; ++w) {
            combined[w] = neutral[w];
          }
        }
        ++and_ops;
        if (!BitmapAndInPlace(bits.data(), combined.data(), bitmap_words_)) {
          alive = false;
          break;
        }
      }
      if (!alive) {
        ++dropped;
        continue;
      }

      // Distributor: route the joined tuple to every surviving query.
      for (const auto& q : task->queries) {
        if (!((bits[q->bit >> 6] >> (q->bit & 63)) & 1u)) continue;
        if (q->muted.load(std::memory_order_relaxed)) continue;
        if (q->ctx->cancelled()) {
          q->muted.store(true, std::memory_order_relaxed);
          continue;
        }
        std::lock_guard<std::mutex> emit_lock(q->emit_mutex);
        uint8_t* slot = q->builder->AppendSlot();
        if (slot == nullptr) {
          PageRef full = std::move(q->builder);
          q->builder =
              std::make_shared<RowPage>(q->output_schema.row_width());
          if (!q->sink->Put(std::move(full))) {
            q->muted.store(true, std::memory_order_relaxed);
            continue;
          }
          slot = q->builder->AppendSlot();
        }
        for (const auto& op : q->copy_ops) {
          const uint8_t* src =
              op.level < 0 ? row + op.src_off
                           : matched[op.level]->row.data() + op.src_off;
          std::memcpy(slot + op.dst_off, src, op.width);
        }
        ++emitted;
      }
    }
  }

  fact_tuples_in_->Add(n_rows);
  tuples_dropped_->Add(dropped);
  tuples_out_->Add(emitted);
  bitmap_and_ops_->Add(and_ops);

  // Completion accounting: a query finishes when it has seen every fact
  // page exactly once since admission.
  for (const auto& q : task->queries) {
    if (q->pages_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Status final = Status::OK();
      if (q->muted.load()) {
        std::lock_guard<std::mutex> fail_lock(q->fail_mutex);
        final = q->fail_status.ok() ? Status::Aborted("query abandoned")
                                    : q->fail_status;
      }
      FinalizeQuery(q, std::move(final));
    }
  }
}

void CJoinPipeline::FinalizeQuery(const ActiveQueryRef& q, Status final) {
  {
    std::unique_lock<std::shared_mutex> epoch(epoch_mutex_);
    for (std::size_t i = 0; i < q->levels_used.size(); ++i) {
      Level& level = levels_[q->levels_used[i]];
      level.ht->RemoveQuery(q->bit);
      --level.live_queries;
    }
    for (auto& level : levels_) {
      level.ht->mutable_neutral_bits()->Clear(q->bit);
    }
    std::erase(active_, q);
    slots_[q->bit] = nullptr;
    free_bits_.push_back(q->bit);
    active_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  queries_completed_->Increment();
  SignalDone(q, std::move(final));
  // A freed bit may unblock pending admissions.
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
