#include "qpipe/engine.h"

#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "qpipe/batch_pipe.h"
#include "server/admin_server.h"
#include "server/watchdog.h"

namespace sharing {

StatusOr<ResultSet> QueryHandle::Collect() {
  SHARING_CHECK(valid());
  const uint64_t qid = ctx_->query_id();
  const uint64_t sig = plan_->Signature();
  TraceSpan collect_span("engine", "query.collect", qid, sig);
  ResultSet result(schema());
  while (PageRef page = root_->Next()) {
    if (ctx_->StopRequested()) {
      // The collector is the last boundary a deadline can stop at; a
      // partial result is discarded, never returned as if complete.
      root_->CancelConsumer();
      return ctx_->TerminalStatus();
    }
    result.AppendPage(*page);
  }
  Status st = root_->FinalStatus();
  if (!st.ok()) {
    // An expired deadline is the root cause of whatever downstream
    // status the stop surfaced as (aborted readers, closed channels).
    if (ctx_->deadline_exceeded()) return ctx_->TerminalStatus();
    return st;
  }
  // The query is done: stamp its wall clock, feed the latency
  // histogram, and attach the finished explain report. The engine-layer
  // submit->finish span is emitted here as one complete event (span
  // start = submission) so a ring overwrite can never strand half of a
  // begin/end pair.
  ctx_->explain()->MarkFinished();
  const int64_t total = ctx_->explain()->total_micros();
  ctx_->metrics()->GetHistogram(metrics::kQueryLatencyMicros)->Record(total);
  Trace::RecordComplete("engine", "query", ctx_->explain()->start_micros(),
                        total, qid, sig);
  result.SetExplain(
      std::make_shared<const QueryExplain>(ctx_->explain()->Build(qid)));
  return result;
}

QueryExplain QueryHandle::Explain() const {
  SHARING_CHECK(valid());
  return ctx_->explain()->Build(ctx_->query_id());
}

void QueryHandle::Cancel() {
  if (!valid()) return;
  ctx_->Cancel();
  root_->CancelConsumer();
}

QPipeEngine::QPipeEngine(Catalog* catalog, QPipeOptions options,
                         MetricsRegistry* metrics)
    : catalog_(catalog), options_(options), metrics_(metrics) {
  // Tracing is process-wide (rings are per thread, not per engine):
  // an engine configured with the knob turns it on and leaves it on —
  // a second engine in the same process shares the recorder.
  if (options_.trace_enabled) Trace::Enable(options_.trace_buffer_events);
  // Fault registry: bind the fire counter to this engine's registry and
  // arm any configured schedule. An invalid spec aborts construction —
  // a chaos run that silently tests nothing is worse than one that
  // refuses to start.
  FaultRegistry::Global().BindMetrics(metrics_);
  if (!options_.fault_spec.empty()) {
    Status fault_st = FaultRegistry::Global().Arm(options_.fault_spec);
    SHARING_CHECK(fault_st.ok())
        << "bad fault_spec: " << fault_st.ToString();
  }
  if (options_.io_threads > 0) {
    IoScheduler::Options iopts;
    iopts.threads = options_.io_threads;
    iopts.retry_limit = options_.io_retry_limit;
    iopts.metrics = metrics_;
    io_scheduler_ = std::make_shared<IoScheduler>(iopts);
  }
  if (options_.sp_memory_budget > 0) {
    SpBudgetGovernor::Options gopts;
    gopts.budget_pages = options_.sp_memory_budget;
    gopts.spill_path = options_.sp_spill_path;
    gopts.scheduler = io_scheduler_;
    gopts.metrics = metrics_;
    sp_governor_ = SpBudgetGovernor::Create(std::move(gopts));
  }

  Stage::Options& base = base_stage_options_;
  base.initial_workers = options_.stage_workers;
  base.max_workers = options_.stage_max_workers;
  base.fifo_capacity = options_.fifo_capacity;
  base.cost_model.min_samples = options_.cost_model_min_samples;
  base.governor = sp_governor_;

  Stage::Options o = base;
  o.sp_mode = options_.sp_mode;
  tscan_ = std::make_unique<TscanStage>(o, metrics_);
  join_ = std::make_unique<JoinStage>(o, metrics_);
  agg_ = std::make_unique<AggStage>(o, metrics_);
  sort_ = std::make_unique<SortStage>(o, metrics_);

  // Admin/introspection surface, last: its inspector callbacks read
  // through the stages, so everything they touch must already exist.
  if (options_.admin_port >= 0 || !options_.admin_uds_path.empty()) {
    EngineInspector inspector;
    inspector.metrics = metrics_;
    inspector.queries = [this] { return LiveQueries(); };
    inspector.explain = [this](uint64_t id) { return ExplainQuery(id); };
    inspector.channels = [this] {
      std::vector<Stage::ChannelSnapshot> out;
      for (Stage* stage : std::initializer_list<Stage*>{
               tscan_.get(), join_.get(), agg_.get(), sort_.get()}) {
        auto snap = stage->ChannelsSnapshot();
        out.insert(out.end(), std::make_move_iterator(snap.begin()),
                   std::make_move_iterator(snap.end()));
      }
      std::lock_guard<std::mutex> lock(extra_stages_mutex_);
      for (const auto& stage : extra_stages_) {
        auto snap = stage->ChannelsSnapshot();
        out.insert(out.end(), std::make_move_iterator(snap.begin()),
                   std::make_move_iterator(snap.end()));
      }
      return out;
    };
    inspector.cost_models = [this] {
      std::vector<StageCostModelInfo> out;
      for (Stage* stage : std::initializer_list<Stage*>{
               tscan_.get(), join_.get(), agg_.get(), sort_.get()}) {
        out.push_back({std::string(stage->name()), stage->CostModelSnapshot()});
      }
      std::lock_guard<std::mutex> lock(extra_stages_mutex_);
      for (const auto& stage : extra_stages_) {
        out.push_back({std::string(stage->name()), stage->CostModelSnapshot()});
      }
      return out;
    };
    inspector.io_queue_depths = [this] {
      std::vector<std::size_t> depths;
      if (io_scheduler_ != nullptr) {
        depths.reserve(kIoPriorityClasses);
        for (std::size_t cls = 0; cls < kIoPriorityClasses; ++cls) {
          depths.push_back(
              io_scheduler_->QueueDepth(static_cast<IoPriority>(cls)));
        }
      }
      return depths;
    };
    inspector.spill_health = [this] {
      return sp_governor_ != nullptr ? sp_governor_->DisabledReason()
                                     : Status::OK();
    };

    if (options_.watchdog_period_ms > 0) {
      Watchdog::Options wopts;
      wopts.period_ms = options_.watchdog_period_ms;
      watchdog_ = std::make_unique<Watchdog>(wopts, inspector);
      watchdog_->Start();
    }

    AdminServer::Options aopts;
    aopts.port = options_.admin_port;
    aopts.uds_path = options_.admin_uds_path;
    admin_server_ = std::make_unique<AdminServer>(aopts);
    RegisterEngineEndpoints(admin_server_.get(), std::move(inspector),
                            watchdog_.get());
    Status st = admin_server_->Start();
    if (!st.ok()) {
      // Degrade, don't die: the engine runs fine without the admin
      // surface. The watchdog (if any) keeps warning via logs/metrics.
      SHARING_LOG(Error) << "admin server disabled: " << st.ToString();
      admin_server_.reset();
    }
  }
}

QPipeEngine::~QPipeEngine() {
  // The admin surface goes first: its handlers and the watchdog read
  // through the stages about to shut down.
  if (admin_server_ != nullptr) admin_server_->Stop();
  if (watchdog_ != nullptr) watchdog_->Stop();
  // Stages drain their queues before the scan groups are destroyed: a
  // scan packet's ticket must not outlive its group.
  tscan_->Shutdown();
  join_->Shutdown();
  agg_->Shutdown();
  sort_->Shutdown();
  {
    std::lock_guard<std::mutex> lock(extra_stages_mutex_);
    for (auto& s : extra_stages_) s->Shutdown();
  }
  // Then the I/O scheduler: queued jobs are dropped (their owners keep
  // state in memory by contract), running ones finish. Clients hold the
  // scheduler by shared_ptr and fall back to synchronous I/O once
  // Submit starts returning nullptr, so the remaining members can be
  // destroyed in any order.
  if (io_scheduler_ != nullptr) io_scheduler_->Shutdown();
  // A fault fired after this engine is gone must not count into its
  // (soon destroyed) registry.
  FaultRegistry::Global().UnbindMetrics(metrics_);
}

void QPipeEngine::SetSpModeAllStages(SpMode mode) {
  tscan_->SetSpMode(mode);
  join_->SetSpMode(mode);
  agg_->SetSpMode(mode);
  sort_->SetSpMode(mode);
}

CircularScanGroup* QPipeEngine::ScanGroupFor(const Table* table) {
  std::lock_guard<std::mutex> lock(scan_groups_mutex_);
  auto it = scan_groups_.find(table);
  if (it == scan_groups_.end()) {
    it = scan_groups_
             .emplace(table,
                      std::make_unique<CircularScanGroup>(
                          table, /*queue_depth=*/4, metrics_, io_scheduler_))
             .first;
  }
  return it->second.get();
}

void QPipeEngine::RegisterExtraStage(std::shared_ptr<Stage> stage) {
  std::lock_guard<std::mutex> lock(extra_stages_mutex_);
  extra_stages_.push_back(std::move(stage));
}

std::vector<QPipeEngine::LiveQueryInfo> QPipeEngine::LiveQueries() {
  const int64_t now = Trace::NowMicros();
  std::vector<LiveQueryInfo> out;
  std::lock_guard<std::mutex> lock(live_mutex_);
  for (auto it = live_queries_.begin(); it != live_queries_.end();) {
    std::shared_ptr<ExecContext> ctx = it->second.ctx.lock();
    // Prune abandoned (context died with its handle) and finished
    // queries; the registry self-cleans on every scrape and submit.
    if (ctx == nullptr || ctx->explain()->total_micros() > 0) {
      it = live_queries_.erase(it);
      continue;
    }
    LiveQueryInfo info;
    info.query_id = it->first;
    info.signature = it->second.signature;
    info.age_micros = now - ctx->explain()->start_micros();
    info.cancelled = ctx->cancelled();
    const QueryExplain report = ctx->explain()->Build(it->first);
    info.stage =
        report.stages.empty() ? "dispatch" : report.stages.back().stage;
    for (const auto& record : report.stages) {
      info.pages_delivered += static_cast<int64_t>(record.pages_delivered);
    }
    out.push_back(std::move(info));
    ++it;
  }
  return out;
}

std::optional<QueryExplain> QPipeEngine::ExplainQuery(uint64_t query_id) {
  std::shared_ptr<ExecContext> ctx;
  {
    std::lock_guard<std::mutex> lock(live_mutex_);
    auto it = live_queries_.find(query_id);
    if (it == live_queries_.end()) return std::nullopt;
    ctx = it->second.ctx.lock();
  }
  if (ctx == nullptr) return std::nullopt;
  return ctx->explain()->Build(query_id);
}

void QPipeEngine::SetJoinDispatchHook(DispatchHook hook) {
  std::lock_guard<std::mutex> lock(hook_mutex_);
  join_hook_ = std::move(hook);
}

PageSourceRef QPipeEngine::Dispatch(const PlanNodeRef& node,
                                    const ExecContextRef& ctx) {
  switch (node->kind()) {
    case PlanKind::kScan: {
      const auto* scan = static_cast<const ScanNode*>(node.get());
      auto table_or = catalog_->GetTable(scan->table_name());
      SHARING_CHECK(table_or.ok()) << table_or.status().ToString();
      Table* table = table_or.value();
      CircularScanGroup* group = ScanGroupFor(table);
      return tscan_->SubmitOrShare(
          node, ctx, /*make_inputs=*/{}, [table, group](Packet& p) {
            p.table = table;
            p.scan_group = group;
          });
    }
    case PlanKind::kJoin: {
      {
        std::lock_guard<std::mutex> lock(hook_mutex_);
        if (join_hook_) {
          if (PageSourceRef src = join_hook_(node, ctx)) return src;
        }
      }
      const auto* j = static_cast<const JoinNode*>(node.get());
      PlanNodeRef build = j->build();
      PlanNodeRef probe = j->probe();
      return join_->SubmitOrShare(node, ctx, [this, build, probe, ctx] {
        std::vector<PageSourceRef> inputs;
        inputs.push_back(Dispatch(build, ctx));
        inputs.push_back(Dispatch(probe, ctx));
        return inputs;
      });
    }
    case PlanKind::kAggregate: {
      const auto* a = static_cast<const AggregateNode*>(node.get());
      PlanNodeRef child = a->child();
      return agg_->SubmitOrShare(node, ctx, [this, child, ctx] {
        return std::vector<PageSourceRef>{Dispatch(child, ctx)};
      });
    }
    case PlanKind::kSort: {
      const auto* s = static_cast<const SortNode*>(node.get());
      PlanNodeRef child = s->child();
      return sort_->SubmitOrShare(node, ctx, [this, child, ctx] {
        return std::vector<PageSourceRef>{Dispatch(child, ctx)};
      });
    }
  }
  SHARING_CHECK(false) << "unreachable plan kind";
  return nullptr;
}

QueryHandle QPipeEngine::Submit(PlanNodeRef plan) {
  auto ctx = std::make_shared<ExecContext>(NextQueryId(), metrics_);
  if (options_.query_timeout_ms > 0) {
    const int64_t timeout_ms =
        static_cast<int64_t>(options_.query_timeout_ms);
    ctx->ArmDeadline(Trace::NowMicros() + timeout_ms * 1000, timeout_ms);
  }
  TraceSpan span("engine", "query.submit", ctx->query_id(),
                 plan->Signature());
  // The root is read in runs like every other stage boundary; explain
  // records keep pointing at the sources the stages handed out.
  PageSourceRef root = std::make_shared<BatchingSource>(Dispatch(plan, ctx));
  if (admin_server_ != nullptr || watchdog_ != nullptr) {
    // Register for /queries, /explain and the watchdog's age probe. The
    // weak context keeps registration from extending the query's life.
    std::lock_guard<std::mutex> lock(live_mutex_);
    if (live_queries_.size() >= 256) {
      // Backstop prune so an unscrapped registry stays bounded by the
      // number of genuinely live queries (LiveQueries() prunes harder).
      std::erase_if(live_queries_,
                    [](const auto& entry) { return entry.second.ctx.expired(); });
    }
    live_queries_[ctx->query_id()] =
        LiveQuery{plan->Signature(), std::weak_ptr<ExecContext>(ctx)};
  }
  return QueryHandle(std::move(plan), std::move(root), std::move(ctx));
}

StatusOr<ResultSet> QPipeEngine::Execute(PlanNodeRef plan) {
  QueryHandle handle = Submit(std::move(plan));
  auto result = handle.Collect();
  if (result.ok()) {
    metrics_->GetCounter(metrics::kQueriesFinished)->Increment();
  }
  return result;
}

}  // namespace sharing
