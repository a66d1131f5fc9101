#include "qpipe/stage.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "exec/explain.h"
#include "qpipe/batch_pipe.h"

namespace sharing {

namespace {

/// Monotonic micros for the cost model's arrival clock.
int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-failure containment for satellites: a satellite performs no work
/// of its own, so a host that dies (fault injection, disk error, cancel)
/// poisons the channel and would fail every attached query with an error
/// none of them caused. This wrapper detects the poison at end-of-stream
/// and — when the satellite saw NO pages yet and is not itself being
/// stopped — transparently re-dispatches the packet unshared, exactly
/// once. A satellite that already consumed pages cannot be replayed
/// (page order across a re-run is not reproducible), so mid-stream
/// poison propagates to the query as the host's status.
class SatelliteRerunSource final : public PageSource {
 public:
  SatelliteRerunSource(PageSourceRef inner, ExecContextRef ctx,
                       std::function<PageSourceRef()> rerun,
                       Counter* rerun_counter)
      : inner_(std::move(inner)),
        ctx_(std::move(ctx)),
        rerun_(std::move(rerun)),
        rerun_counter_(rerun_counter) {}

  std::size_t NextBatch(std::size_t max_pages,
                        std::vector<PageRef>* out) override {
    for (;;) {
      const std::size_t got = Inner()->NextBatch(max_pages, out);
      if (got > 0) {
        delivered_.fetch_add(got, std::memory_order_relaxed);
        return got;
      }
      if (!MaybeRerun()) return 0;
    }
  }

  Status FinalStatus() const override { return Inner()->FinalStatus(); }

  void CancelConsumer() override {
    // May race with the consumer swapping inner_ in MaybeRerun. Cancel
    // lands on whichever source the copy caught; a swap that slips past
    // is caught by the collector's per-page stop check (the context is
    // already cancelled when QueryHandle::Cancel calls us).
    Inner()->CancelConsumer();
  }

  std::size_t PagesDelivered() const override {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  PageSourceRef Inner() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return inner_;
  }

  /// End-of-stream triage; true = a fresh unshared run replaced the
  /// poisoned reader and reading should continue. Runs only on the
  /// consumer thread; mutex_ covers the inner_ swap against concurrent
  /// CancelConsumer / FinalStatus callers.
  bool MaybeRerun() {
    if (reran_) return false;
    reran_ = true;  // one attempt, whatever the triage below decides
    const Status st = Inner()->FinalStatus();
    if (st.ok()) return false;  // clean end-of-stream
    if (delivered_.load(std::memory_order_relaxed) > 0) {
      return false;  // mid-stream poison: replay is not reproducible
    }
    if (ctx_->StopRequested()) return false;  // self-inflicted stop
    SHARING_LOG_QID(Warning, ctx_->query_id())
        << "sharing host failed before this satellite consumed a page ("
        << st.ToString() << ") — re-running the packet unshared";
    PageSourceRef fresh = rerun_();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inner_ = std::move(fresh);
    }
    rerun_counter_->Increment();
    return true;
  }

  mutable std::mutex mutex_;
  PageSourceRef inner_;  // guarded by mutex_ (swapped once on re-run)
  ExecContextRef ctx_;
  std::function<PageSourceRef()> rerun_;
  Counter* rerun_counter_;
  std::atomic<std::size_t> delivered_{0};
  bool reran_ = false;  // consumer thread only
};

/// A host packet's output: its session's producer side. The end of
/// production reaches the channel as Finish, so a pull session stays
/// attachable until a reader has read it to the end.
class SessionSink final : public PageSink {
 public:
  explicit SessionSink(SharingChannelRef channel)
      : channel_(std::move(channel)) {}

  bool PutBatch(std::vector<PageRef> pages) override {
    return channel_->PutBatch(std::move(pages));
  }

  void Close(Status final) override { channel_->Finish(std::move(final)); }

 private:
  SharingChannelRef channel_;
};

}  // namespace

Stage::Stage(std::string name, Options options, MetricsRegistry* metrics)
    : name_(std::move(name)),
      options_(options),
      metrics_(metrics),
      sp_opportunities_(metrics->GetCounter(metrics::kSpOpportunities)),
      satellite_reruns_(
          metrics->GetCounter(metrics::kSharingSatelliteRerun)),
      run_packet_hist_(
          metrics->GetHistogram(metrics::kStageRunPacketMicros)),
      trace_name_(Trace::InternString("run_packet:" + name_)),
      explain_name_(Trace::InternString(name_)),
      cost_model_(
          std::make_unique<SharingCostModel>(options.cost_model, metrics)),
      close_guard_(std::make_shared<CloseGuard>(this)),
      pool_(options.initial_workers, options.max_workers) {}

Stage::~Stage() {
  Shutdown();
  std::lock_guard<std::mutex> lock(close_guard_->mutex);
  close_guard_->stage = nullptr;
}

void Stage::Shutdown() { pool_.Shutdown(); }

void Stage::SetSpMode(SpMode mode) {
  std::lock_guard<std::mutex> lock(mode_mutex_);
  options_.sp_mode = mode;
}

SpMode Stage::sp_mode() const {
  std::lock_guard<std::mutex> lock(mode_mutex_);
  return options_.sp_mode;
}

StageStats Stage::GetStats() const {
  StageStats stats;
  stats.packets_submitted = packets_submitted_.load();
  stats.packets_executed = packets_executed_.load();
  stats.sp_hits = sp_hits_.load();
  stats.adaptive_off = adaptive_off_.load();
  stats.adaptive_push = adaptive_push_.load();
  stats.adaptive_pull = adaptive_pull_.load();
  stats.adaptive_pull_spill = adaptive_pull_spill_.load();
  stats.adaptive_off_cold = adaptive_off_cold_.load();
  return stats;
}

std::vector<Stage::ChannelSnapshot> Stage::ChannelsSnapshot() const {
  // Grab refs under the registry mutex, introspect outside it: a
  // channel's Introspect takes its own (or its SPL's) locks, and
  // holding the registry across them would order against the on_close
  // deregistration path.
  std::vector<std::pair<uint64_t, SharingChannelRef>> live;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    live.reserve(channels_.size());
    for (const auto& [sig, channel] : channels_) {
      live.emplace_back(sig, channel);
    }
  }
  std::vector<ChannelSnapshot> out;
  out.reserve(live.size());
  for (const auto& [sig, channel] : live) {
    ChannelSnapshot snap;
    snap.stage = name_;
    snap.signature = sig;
    snap.info = channel->Introspect();
    out.push_back(std::move(snap));
  }
  return out;
}

Stage::AdmissionChoice Stage::ChooseAdaptiveMode(
    uint64_t sig, int64_t submissions_since_last_seen) {
  if (submissions_since_last_seen > SharingCostModel::kPopularityWindow) {
    adaptive_off_.fetch_add(1, std::memory_order_relaxed);
    adaptive_off_cold_.fetch_add(1, std::memory_order_relaxed);
    return AdmissionChoice{SpMode::kOff, "cold", false, 0};
  }
  // Hot signature: ask its cost model. The decision is per-signature — a
  // cheap template and an expensive one on the same stage get *different*
  // admissions, which stage-wide means cannot do.
  CostModelEnvironment env;
  env.fifo_capacity = options_.fifo_capacity;
  if (options_.governor != nullptr) {
    env.budget_pages = options_.governor->budget_pages();
    env.spill_usable = options_.governor->usable();
  }
  const CostDecision decision = cost_model_->Decide(sig, env);
  switch (decision.mode) {
    case SpMode::kOff:
      adaptive_off_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SpMode::kPush:
      adaptive_push_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      adaptive_pull_.fetch_add(1, std::memory_order_relaxed);
      if (decision.spill_preferred) {
        adaptive_pull_spill_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
  }
  return AdmissionChoice{decision.mode, "model", decision.spill_preferred,
                         decision.confidence};
}

void Stage::RecordSessionClose(uint64_t sig, const SessionView& view) {
  // The signature's ring buffer sees the raw session outcome in two views:
  // the lag is FIFO-capped (the push-convoy signal — a pull session can
  // run arbitrarily far ahead of a reader, and that must not read as a
  // convoy), the retention is not (the spill-demand signal).
  SignatureStats::SessionSample sample;
  sample.satellites = view.ever_attached > 1
                          ? static_cast<double>(view.ever_attached - 1)
                          : 0.0;
  sample.pages = static_cast<double>(view.published);
  sample.lag = static_cast<double>(
      std::min(view.max_consumer_lag, options_.fifo_capacity));
  sample.retention = static_cast<double>(view.max_consumer_lag);
  cost_model_->RecordSession(sig, sample);
}

PageSourceRef Stage::SubmitOrShare(PlanNodeRef node, ExecContextRef ctx,
                                   const MakeInputsFn& make_inputs,
                                   const PreparePacketFn& prepare) {
  packets_submitted_.fetch_add(1, std::memory_order_relaxed);
  const SpMode configured = sp_mode();
  const uint64_t sig = node->Signature();

  int64_t gap = 0;
  if (configured != SpMode::kOff) {
    // Attaching to an in-flight identical packet is a free win in every
    // sharing mode, whichever transport the host happens to use. (kOff
    // submissions skip the registry entirely — no lock on that path.)
    std::lock_guard<std::mutex> lock(registry_mutex_);
    if (configured == SpMode::kAdaptive) {
      gap = cost_model_->RecordArrival(sig, NowMicros(), ++submit_seq_);
    }
    auto it = channels_.find(sig);
    if (it != channels_.end()) {
      const SpMode host_mode = it->second->mode();
      if (PageSourceRef reader = it->second->AttachReader(ctx)) {
        sp_hits_.fetch_add(1, std::memory_order_relaxed);
        sp_opportunities_->Increment();
        // Host-failure containment: a host abort poisons the channel, so
        // the satellite reader rides a wrapper that re-dispatches the
        // packet unshared (once) when the poison arrives before any page
        // did. The re-run is forced kOff — attaching again could land on
        // the same failing host.
        auto rerun = [this, node, ctx, make_inputs, prepare] {
          return SubmitFresh(node, ctx, make_inputs, prepare,
                             AdmissionChoice{SpMode::kOff, "rerun", false, 0},
                             false);
        };
        auto wrapped = std::make_shared<SatelliteRerunSource>(
            std::move(reader), ctx, std::move(rerun), satellite_reruns_);
        // The free win: this query executes nothing at this stage. Its
        // explain record points at the satellite reader, whose delivered
        // pages all count as served-by-the-host.
        ExplainState::PendingStage rec;
        rec.stage = explain_name_;
        rec.signature = sig;
        rec.role = QueryExplain::StageRecord::Role::kSatellite;
        rec.transport = host_mode == SpMode::kPush ? "push" : "pull";
        rec.decided_by = "attach";
        rec.source = wrapped;
        ctx->explain()->AddStage(std::move(rec));
        return wrapped;
      }
      // Attach window closed (push host already emitting, or the host
      // finished/aborted): replace with a fresh host below.
      channels_.erase(it);
    }
  }

  AdmissionChoice choice{configured, "static", false, 0};
  if (configured == SpMode::kAdaptive) choice = ChooseAdaptiveMode(sig, gap);
  return SubmitFresh(std::move(node), std::move(ctx), make_inputs, prepare,
                     choice, configured == SpMode::kAdaptive);
}

PageSourceRef Stage::SubmitFresh(PlanNodeRef node, ExecContextRef ctx,
                                 const MakeInputsFn& make_inputs,
                                 const PreparePacketFn& prepare,
                                 const AdmissionChoice& choice,
                                 bool record_work) {
  const uint64_t sig = node->Signature();
  ExplainState::PendingStage rec;
  rec.stage = explain_name_;
  rec.signature = sig;
  rec.decided_by = choice.decided_by;
  rec.spill_preferred = choice.spill_preferred;
  rec.confidence = choice.confidence;

  if (choice.mode == SpMode::kOff) {
    auto fifo = std::make_shared<FifoBuffer>(options_.fifo_capacity, ctx);
    rec.role = QueryExplain::StageRecord::Role::kUnshared;
    rec.source = fifo;
    const std::size_t explain_index = ctx->explain()->AddStage(std::move(rec));
    Enqueue(std::move(node), std::move(ctx), fifo, make_inputs, prepare,
            record_work, explain_index);
    return fifo;
  }

  SharingChannelOptions copts;
  copts.fifo_capacity = options_.fifo_capacity;
  copts.metrics = metrics_;
  copts.governor = options_.governor;
  // Trace correlation: the channel's spans carry the *host's* query id
  // (the query whose packet produces the shared pages) and the session
  // signature every satellite shares.
  copts.query_id = ctx->query_id();
  copts.signature = sig;
  // Online transport-cost feed: the channel samples its own copy/attach
  // wall time and the model's EWMA replaces the fixed constants (the
  // cost model outlives every channel — Stage owns both).
  copts.on_copy_cost = [this](double ns_per_page) {
    cost_model_->RecordCopyCost(ns_per_page);
  };
  copts.on_attach_cost = [this](double attach_ns) {
    cost_model_->RecordAttachCost(attach_ns);
  };
  // The close hook needs the channel's identity to deregister exactly this
  // session (a newer host may have replaced it under the same signature),
  // but the channel is constructed after the hook — bridge with a slot.
  auto self_slot = std::make_shared<std::weak_ptr<SharingChannel>>();
  copts.on_close = [guard = close_guard_, sig,
                    self_slot](const SessionView& view) {
    std::lock_guard<std::mutex> guard_lock(guard->mutex);
    Stage* stage = guard->stage;
    if (stage == nullptr) return;
    stage->RecordSessionClose(sig, view);
    std::lock_guard<std::mutex> lock(stage->registry_mutex_);
    auto it = stage->channels_.find(sig);
    if (it != stage->channels_.end() && it->second == self_slot->lock()) {
      stage->channels_.erase(it);
    }
  };

  SharingChannelRef channel = MakeSharingChannel(choice.mode, std::move(copts));
  *self_slot = channel;
  PageSourceRef host_reader = channel->AttachReader(ctx);
  SHARING_CHECK(host_reader != nullptr);
  rec.role = QueryExplain::StageRecord::Role::kHost;
  rec.transport = choice.mode == SpMode::kPush ? "push" : "pull";
  rec.source = host_reader;
  const std::size_t explain_index = ctx->explain()->AddStage(std::move(rec));
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    channels_[sig] = channel;
  }
  Enqueue(std::move(node), std::move(ctx),
          std::make_shared<SessionSink>(std::move(channel)), make_inputs,
          prepare, record_work, explain_index);
  return host_reader;
}

void Stage::Enqueue(PlanNodeRef node, ExecContextRef ctx, PageSinkRef output,
                    const MakeInputsFn& make_inputs,
                    const PreparePacketFn& prepare, bool record_work,
                    std::size_t explain_index) {
  auto packet = std::make_shared<Packet>();
  packet->node = std::move(node);
  packet->ctx = std::move(ctx);
  packet->output = std::move(output);
  if (make_inputs) packet->inputs = make_inputs();
  if (prepare) prepare(*packet);
  // Every page crossing a stage boundary rides a run: the operator keeps
  // its page-at-a-time loop, and the adapters pay one lock acquisition
  // (FIFO) or one publication + wake (SPL) per kTransportBatch pages.
  for (PageSourceRef& input : packet->inputs) {
    input = std::make_shared<BatchingSource>(std::move(input));
  }
  packet->output = std::make_shared<BatchingSink>(std::move(packet->output));

  packets_executed_.fetch_add(1, std::memory_order_relaxed);
  // Every packet run is wall-timed (two clock reads): the time feeds the
  // stage.run_packet histogram, the query's explain record, and — only
  // when `record_work` (the stage was adaptive at submission; the model
  // feed costs a mutex + ring push a static stage must not pay) — the
  // signature's cost-model history. Wall (not CPU) deliberately: a
  // packet convoyed on output backpressure is exactly the work a
  // satellite is spared.
  bool ok = pool_.Submit([this, packet, record_work, explain_index] {
    TraceSpan span("stage", trace_name_, packet->ctx->query_id(),
                   packet->node->Signature());
    Stopwatch watch;
    RunPacket(*packet);
    const int64_t elapsed = watch.ElapsedMicros();
    run_packet_hist_->Record(elapsed);
    packet->ctx->explain()->AddRunMicros(explain_index, elapsed);
    if (record_work) {
      cost_model_->RecordExecution(packet->node->Signature(),
                                   static_cast<double>(elapsed));
    }
  });
  if (!ok) {
    for (const auto& input : packet->inputs) input->CancelConsumer();
    packet->output->Close(Status::Aborted("stage shut down"));
  }
}

}  // namespace sharing
