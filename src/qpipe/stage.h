// Stage: QPipe's self-contained operator module — a work queue, a local
// worker pool, and the Simultaneous Pipelining machinery.
//
// SP happens at packet admission: when a submitted packet's plan signature
// matches an in-flight packet at the same stage, the newcomer becomes a
// *satellite* of the in-flight *host* and performs no work of its own. The
// host's output flows through a SharingChannel (see sharing_channel.h);
// satellites are the channel's extra readers:
//
//  * push mode (original QPipe): the channel copies every output page into
//    the satellite's FIFO. The attach window closes when the host emits
//    its first page (a late satellite would miss results).
//  * pull mode (SPL): the satellite attaches a reader to the host's
//    SharedPagesList and reads the shared pages from the beginning; the
//    attach window stays open for the host's entire production and
//    after it, until a reader has read the result to its end
//    (SharingChannel::Finish), so it does not shrink as scans get faster.
//  * adaptive mode: the per-signature cost model (qpipe/cost_model.h)
//    picks off/push/pull per packet. Its signature LRU decides *whether*
//    a packet is worth considering for sharing at all (popularity); its
//    estimate (arrival rate, work per packet, satellite count, result
//    size, consumer lag, spill retention) decides whether sharing
//    actually pays and *which* transport to host with. While a
//    signature's history is below cost_model.min_samples the model's
//    prior decides: host pull.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/elastic_pool.h"
#include "common/metrics.h"
#include "qpipe/cost_model.h"
#include "qpipe/fifo_buffer.h"
#include "qpipe/packet.h"
#include "qpipe/sharing_channel.h"
#include "qpipe/sp_mode.h"

namespace sharing {

/// Per-stage statistics surfaced by the demo GUI (Scenario IV's key metric
/// is SP opportunities exploited per stage).
struct StageStats {
  int64_t packets_submitted = 0;
  int64_t packets_executed = 0;  // hosts + unshared
  int64_t sp_hits = 0;           // satellites served without execution

  // Adaptive admission decisions taken for fresh packets.
  int64_t adaptive_off = 0;
  int64_t adaptive_push = 0;
  int64_t adaptive_pull = 0;
  /// Subset of adaptive_off gated by the popularity window (cold, never
  /// repeated recently) rather than decided by the cost model. The
  /// difference adaptive_off - adaptive_off_cold is "hot but sharing
  /// does not pay" — the regime only a cost model can detect.
  int64_t adaptive_off_cold = 0;
  /// Subset of adaptive_pull chosen by the spill preference: the
  /// signature's retention forecast exceeded the SP memory budget, so the
  /// packet was hosted pull + spill.
  int64_t adaptive_pull_spill = 0;
};

class Stage {
 public:
  struct Options {
    SpMode sp_mode = SpMode::kOff;
    std::size_t initial_workers = 2;

    /// Hard cap on the stage's elastic pool. CAUTION: progress can require
    /// more concurrent packets than the cap — nested same-stage join
    /// chains, or push-SP fan-outs whose satellite consumers must all
    /// drain concurrently — and such workloads deadlock under a tight cap
    /// by design. QPipe sizes pools generously for exactly this reason;
    /// lower the cap only for controlled single-stage experiments.
    std::size_t max_workers = 1024;

    std::size_t fifo_capacity = FifoBuffer::kDefaultCapacity;

    /// Per-signature history, popularity and cost model behind
    /// SpMode::kAdaptive (see qpipe/cost_model.h).
    CostModelOptions cost_model;

    /// Engine-wide SP memory governor shared by every stage of an engine;
    /// pull channels spill retention beyond its budget to disk. Null:
    /// no budget, no spill tier.
    std::shared_ptr<SpBudgetGovernor> governor;
  };

  Stage(std::string name, Options options, MetricsRegistry* metrics);
  virtual ~Stage();

  SHARING_DISALLOW_COPY_AND_MOVE(Stage);

  /// Lazily produces the packet's input sources. Only invoked when the
  /// packet will actually execute — a satellite never dispatches its
  /// sub-plan, which is exactly the work SP saves.
  using MakeInputsFn = std::function<std::vector<PageSourceRef>()>;

  /// Final per-packet preparation hook (the engine binds scan packets to
  /// their table and circular-scan group here).
  using PreparePacketFn = std::function<void(Packet&)>;

  /// Either attaches to an in-flight identical packet (returning a source
  /// of the shared results) or enqueues a fresh packet (returning a source
  /// of its output).
  PageSourceRef SubmitOrShare(PlanNodeRef node, ExecContextRef ctx,
                              const MakeInputsFn& make_inputs,
                              const PreparePacketFn& prepare = {});

  void SetSpMode(SpMode mode);
  SpMode sp_mode() const;

  const std::string& name() const { return name_; }
  StageStats GetStats() const;

  /// One live sharing session's deep state, tagged with its registry
  /// signature and the owning stage's name.
  struct ChannelSnapshot {
    std::string stage;
    uint64_t signature = 0;
    SharingChannel::Introspection info;
  };

  /// Deep dump of every in-flight sharing session (the admin server's
  /// `/channels` feed). Collects the channel refs under the existing
  /// registry mutex, then introspects each channel outside it — the
  /// same locking discipline SubmitOrShare already follows.
  std::vector<ChannelSnapshot> ChannelsSnapshot() const;

  /// Per-signature cost-model view (bench / test surface): every tracked
  /// signature's history means and decision counts.
  std::vector<SharingCostModel::SignatureSnapshot> CostModelSnapshot() const {
    return cost_model_->Snapshot();
  }

  /// Human-readable per-signature dump of the cost model.
  std::string CostModelDump() const { return cost_model_->DebugDump(); }

  /// Drains and joins the worker pool (also run by the destructor).
  void Shutdown();

 protected:
  /// Runs the packet's operator to completion (implemented per stage).
  virtual void RunPacket(Packet& packet) = 0;

 private:
  /// A fresh packet's admission outcome plus the provenance the
  /// sharing-explain report records (who decided, with what confidence).
  /// `decided_by` values mirror QueryExplain::StageRecord::decided_by.
  struct AdmissionChoice {
    SpMode mode = SpMode::kOff;
    const char* decided_by = "static";
    bool spill_preferred = false;
    double confidence = 0;
  };

  /// `record_work` = the stage was configured adaptive at submission:
  /// the packet's wall time feeds the signature's cost-model history.
  PageSourceRef SubmitFresh(PlanNodeRef node, ExecContextRef ctx,
                            const MakeInputsFn& make_inputs,
                            const PreparePacketFn& prepare,
                            const AdmissionChoice& choice, bool record_work);

  /// `explain_index` = the query's explain record charged with this
  /// packet's RunPacket wall time.
  void Enqueue(PlanNodeRef node, ExecContextRef ctx, PageSinkRef output,
               const MakeInputsFn& make_inputs,
               const PreparePacketFn& prepare, bool record_work,
               std::size_t explain_index);

  /// The adaptive per-packet decision for a fresh (non-attaching) packet:
  /// popularity gate, then the signature's cost model.
  AdmissionChoice ChooseAdaptiveMode(uint64_t sig,
                                     int64_t submissions_since_last_seen);

  /// Folds a closed channel's stats into the signature's history.
  void RecordSessionClose(uint64_t sig, const SharingChannel::Stats& stats);

  std::string name_;
  mutable std::mutex mode_mutex_;
  Options options_;
  MetricsRegistry* metrics_;
  Counter* sp_opportunities_;
  /// Satellites transparently re-dispatched unshared after their host
  /// failed before delivering any page (see SatelliteRerunSource).
  Counter* satellite_reruns_;
  Histogram* run_packet_hist_;
  /// Interned "run_packet:<stage>" — the stage's RunPacket span name
  /// (trace event names must outlive every ring slot).
  const char* trace_name_;
  /// Interned stage name for explain records, which outlive the stage.
  const char* explain_name_;

  std::atomic<int64_t> packets_submitted_{0};
  std::atomic<int64_t> packets_executed_{0};
  std::atomic<int64_t> sp_hits_{0};

  std::atomic<int64_t> adaptive_off_{0};
  std::atomic<int64_t> adaptive_push_{0};
  std::atomic<int64_t> adaptive_pull_{0};
  std::atomic<int64_t> adaptive_pull_spill_{0};
  std::atomic<int64_t> adaptive_off_cold_{0};

  /// Per-signature history + admission cost model. Session outcomes are
  /// recorded in every sharing mode (sessions are rare and give a stage
  /// switched to kAdaptive warm history); per-packet work timing only in
  /// adaptive mode (it costs a mutex + ring push per packet).
  std::unique_ptr<SharingCostModel> cost_model_;

  /// A session's on_close may run on a reader's thread after the stage is
  /// gone (a finished pull session closes when a reader reads it to its
  /// end), so it reaches the stage through this guard, which ~Stage
  /// clears.
  struct CloseGuard {
    explicit CloseGuard(Stage* s) : stage(s) {}
    std::mutex mutex;
    Stage* stage;  // guarded by mutex; null once the stage is destroyed
  };
  std::shared_ptr<CloseGuard> close_guard_;

  mutable std::mutex registry_mutex_;
  /// In-flight sharing sessions by plan signature, transport-agnostic.
  std::unordered_map<uint64_t, SharingChannelRef> channels_;
  /// Adaptive submissions so far: the sequence the cost model measures
  /// popularity gaps in. Guarded by registry_mutex_.
  int64_t submit_seq_ = 0;

  ElasticThreadPool pool_;
};

}  // namespace sharing
