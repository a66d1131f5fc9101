// SharingCostModel: per-signature history and an explicit cost model for
// adaptive SP admission.
//
// The paper's central argument is that sharing must be *decided*, not
// assumed: whether hosting a sharing session wins depends on the work a
// query performs, how often its identical twins arrive, and how its
// consumers behave — all properties of the *query shape*, not the stage.
// The stage-wide means the original threshold heuristic compared
// conflated cheap and expensive signatures: one laggy big template
// dragged every small template into pull, and a flood of trivial
// one-pagers hid the convoy a heavy template was building.
//
// This module keys the decision on the plan signature instead:
//
//  * SignatureStats — a fixed-capacity ring-buffer history per signature:
//    arrival gaps (wall micros between submissions), observed per-packet
//    work (the host's RunPacket wall time), and closed-session outcomes
//    (pages produced, satellites served, production-time consumer lag,
//    closing retention). Ring semantics mean a signature's behavior last
//    week cannot outvote its behavior now.
//
//  * SharingCostModel — turns one signature's history into an explicit
//    shared-vs-unshared latency estimate plus a memory forecast, and
//    returns an admission decision with a confidence score. Decisions are
//    sticky: flipping away from the previous decision requires the
//    challenger to win by more than a hysteresis margin, so a signature
//    sitting on a cost crossover does not thrash between transports.
//    Below min_samples of history it returns an explicit prior instead:
//    host pull with confidence 0.
//
//  * The signature LRU — bounded at CostModelOptions::capacity, so a
//    long-lived server keeps its hot templates' history under cold churn —
//    also answers *whether* a signature is worth deciding for:
//    RecordArrival reports the stage submissions since its last sighting,
//    and the stage treats anything beyond kPopularityWindow as cold.
//
// The model's constants (copy cost per page, attach cost, spill round
// trip, ...) are *model parameters*, not measurements — they encode the
// relative expense of the transports the same way the paper's analytical
// model does, and the estimate only needs to rank {off, push, pull}
// correctly, not predict wall clock. Only min_samples is surfaced, as
// QPipeOptions::cost_model_min_samples; history, hysteresis and the
// signature-LRU capacity are internal (see docs/KNOBS.md).
//
// Observability: policy.decisions_shared / policy.decisions_unshared /
// policy.flips counters and the policy.confidence gauge (per-mille of the
// most recent model decision's confidence). docs/METRICS.md documents all
// of them. Each decision's estimates ride the policy.decide trace span;
// Stage::CostModelDump() and the admin /cost_model endpoint give the
// per-signature view.

#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "qpipe/sp_mode.h"

namespace sharing {

/// Tuning for the per-signature cost model (min_samples plumbed from
/// QPipeOptions::cost_model_min_samples).
struct CostModelOptions {
  /// Ring-buffer capacity per signature: how many recent executions /
  /// closed sessions vote. Small histories adapt fast; large ones smooth
  /// bursty consumers.
  std::size_t history = 32;

  /// Sessions AND work samples a signature needs before the model prices
  /// it; below this Decide returns the thin-history prior (host pull,
  /// confidence 0). 0 is clamped to 1 by the model (a zero gate would let
  /// it price an empty ring).
  std::size_t min_samples = 3;

  /// Relative cost advantage a challenger mode must have over the
  /// incumbent (the signature's previous decision) to flip it. Prevents
  /// thrash at cost crossovers; the flip-count is policy.flips.
  double hysteresis = 0.15;

  /// Signatures tracked; beyond this the least-recently-touched
  /// signature's history, last sighting included, is evicted.
  std::size_t capacity = 4096;
};

/// Ring-buffer history for one packet signature. Not thread-safe; the
/// owning SharingCostModel serializes access.
class SignatureStats {
 public:
  /// One closed sharing session's outcome for this signature.
  struct SessionSample {
    double satellites = 0;  // readers served beyond the host
    double pages = 0;       // pages the host produced
    double lag = 0;         // production-time max consumer lag (pages)
    double retention = 0;   // closing lag uncapped: pages the slowest
                            // reader kept pinned (spill forecast input)
  };

  explicit SignatureStats(std::size_t capacity);

  /// A submission of this signature at `now_micros` (any monotonic clock;
  /// tests pass synthetic timestamps). Records the gap since the previous
  /// arrival.
  void RecordArrival(int64_t now_micros);

  /// A packet of this signature executed (host or unshared) in
  /// `work_micros` of wall time.
  void RecordExecution(double work_micros);

  /// A sharing session hosted for this signature closed.
  void RecordSession(const SessionSample& sample);

  std::size_t work_samples() const { return work_.size(); }
  std::size_t session_samples() const { return sessions_.size(); }
  std::size_t arrival_samples() const { return gaps_.size(); }

  double MeanWorkMicros() const;
  /// Work at quantile q in [0,1] over the ring (nearest-rank). The p95
  /// work is what the debug dump reports next to the mean: a signature
  /// whose tail is far above its mean is exactly the kind the stage-wide
  /// average misjudged.
  double WorkMicrosAtQuantile(double q) const;
  double MeanPages() const;
  double MeanSatellites() const;
  double MeanLag() const;
  /// Mean closing retention — the per-signature spill-demand forecast.
  double MeanRetention() const;
  /// Mean micros between successive arrivals; +inf until two arrivals.
  double MeanArrivalGapMicros() const;

 private:
  /// Fixed-capacity ring: push overwrites the oldest once full.
  class Ring {
   public:
    explicit Ring(std::size_t capacity) : capacity_(capacity) {}
    void Push(double v);
    std::size_t size() const { return values_.size(); }
    double Mean() const;
    const std::vector<double>& values() const { return values_; }

   private:
    std::size_t capacity_;
    std::size_t next_ = 0;
    std::vector<double> values_;
  };

  /// Session outcomes ride four parallel rings (same push order).
  struct SessionRings {
    Ring satellites, pages, lag, retention;
    explicit SessionRings(std::size_t c)
        : satellites(c), pages(c), lag(c), retention(c) {}
    std::size_t size() const { return pages.size(); }
  };

  Ring work_;
  Ring gaps_;
  SessionRings sessions_;
  int64_t last_arrival_micros_ = 0;
  bool has_arrival_ = false;
};

/// Everything outside the signature's own history that the estimate needs.
struct CostModelEnvironment {
  /// Push-satellite FIFO capacity: lag at/above it means the producer
  /// convoys on the slowest satellite.
  std::size_t fifo_capacity = 8;

  /// Engine-wide SP page budget; 0 = no governor.
  std::size_t budget_pages = 0;

  /// The spill tier can actually absorb overflow (governor configured and
  /// its store not latched failed).
  bool spill_usable = false;
};

/// The explicit estimate behind one decision, surfaced for debugging and
/// the bench's per-signature report. All latencies in micros.
struct CostEstimate {
  double work_micros = 0;         // W: mean per-packet work
  double expected_satellites = 0; // n: history + arrival-rate forecast
  double unshared_micros = 0;     // (1 + n) * W — everyone repeats the work
  double push_micros = 0;         // W + host setup + copies + convoy stall
  double pull_micros = 0;         // W + host setup + attaches + retention
                                  //   bookkeeping + spill round trips
  double retention_pages = 0;     // forecast pages the slowest reader pins
  double spill_pages = 0;         // forecast retention beyond the budget
};

struct CostDecision {
  SpMode mode = SpMode::kPull;  // kOff, kPush or kPull

  /// Pull was chosen (at least partly) because the retention forecast
  /// exceeds the budget and the spill tier absorbs the overflow.
  bool spill_preferred = false;

  /// [0,1]: grows with history depth and with the cost margin between the
  /// chosen mode and the runner-up. Monotonically non-decreasing in
  /// sample count for a stationary signature. 0 = the thin-history prior
  /// decided (the estimate is then empty).
  double confidence = 0;

  CostEstimate estimate;
};

class SharingCostModel {
 public:
  SharingCostModel(CostModelOptions options, MetricsRegistry* metrics);

  SHARING_DISALLOW_COPY_AND_MOVE(SharingCostModel);

  /// Record hooks (thread-safe). `now_micros` is any monotonic micros
  /// clock; production callers pass steady_clock, tests pass synthetic
  /// time.
  ///
  /// RecordArrival also keeps the signature's popularity: `stage_seq` is
  /// the caller's submission sequence number, and the return value is
  /// how many submissions happened since the signature's previous
  /// arrival — INT64_MAX when it has none (new, or evicted by the LRU).
  int64_t RecordArrival(uint64_t signature, int64_t now_micros,
                        int64_t stage_seq);
  void RecordExecution(uint64_t signature, double work_micros);
  void RecordSession(uint64_t signature,
                     const SignatureStats::SessionSample& sample);

  /// Online transport-cost measurements (thread-safe): wall nanoseconds
  /// for one push deep copy of a page / one pull AttachReader, EWMA'd
  /// (alpha kCostEwmaAlpha) across every channel that reports. Once a
  /// sample exists it replaces the corresponding fixed model constant in
  /// Decide's estimate — the ROADMAP "measure, don't assume" follow-up.
  /// Published as the policy.measured_copy_ns / policy.measured_attach_ns
  /// gauges.
  void RecordCopyCost(double copy_ns_per_page);
  void RecordAttachCost(double attach_ns);

  /// The admission decision for a fresh packet of `signature`.
  /// Thread-safe. With min_samples of history it prices the three modes
  /// and updates the signature's sticky decision state and the policy.*
  /// metrics; below that it returns the prior (pull, confidence 0) and
  /// touches neither.
  CostDecision Decide(uint64_t signature, const CostModelEnvironment& env);

  /// Point-in-time view of one tracked signature (bench / test surface).
  struct SignatureSnapshot {
    uint64_t signature = 0;
    std::size_t work_samples = 0;
    std::size_t session_samples = 0;
    double mean_work_micros = 0;
    double p95_work_micros = 0;
    double mean_pages = 0;
    double mean_satellites = 0;
    double mean_retention = 0;
    double mean_arrival_gap_micros = 0;
    // Model decisions taken for this signature, by outcome.
    int64_t decided_off = 0;
    int64_t decided_push = 0;
    int64_t decided_pull = 0;
    bool has_decision = false;
    SpMode last_mode = SpMode::kOff;
    double last_confidence = 0;
  };
  std::vector<SignatureSnapshot> Snapshot() const;

  /// Human-readable dump of every tracked signature (Stage::CostModelDump;
  /// also handy in a debugger).
  std::string DebugDump() const;

  const CostModelOptions& options() const { return options_; }

  // Cost-model parameters (micros): relative expense of the transports.
  // They rank modes; they do not predict wall clock (see file comment).
  // The copy and mechanical-attach constants are *priors*: once
  // RecordCopyCost / RecordAttachCost deliver real measurements, the
  // EWMA replaces them. The satellite-service share stays a parameter —
  // it prices the host-side costs of serving one more pull reader over
  // the session's life (window bookkeeping, parked-reader wakeups,
  // reclamation probes), which no point measurement at attach time can
  // observe.
  static constexpr double kHostSetupMicros = 40.0;
  static constexpr double kPushCopyMicrosPerPage = 6.0;
  static constexpr double kConvoyStallMicrosPerPage = 20.0;
  static constexpr double kPullAttachMicros = 2.0;
  static constexpr double kPullSatelliteServiceMicros = 38.0;
  static constexpr double kPullRetainMicrosPerPage = 1.0;
  static constexpr double kSpillRoundTripMicrosPerPage = 50.0;
  /// EWMA smoothing for the measured copy/attach costs: new samples move
  /// the estimate fast enough to track a regime change (row width, NUMA
  /// placement) within a few dozen samples while one outlier copy cannot
  /// swing a decision.
  static constexpr double kCostEwmaAlpha = 0.2;
  /// A signature is hot when RecordArrival reports at most this many
  /// submissions since its previous arrival; a cold one executes unshared
  /// (hosting a channel no twin will find is pure overhead).
  static constexpr int64_t kPopularityWindow = 64;

 private:
  struct Entry {
    explicit Entry(std::size_t history) : stats(history) {}
    SignatureStats stats;
    bool has_decision = false;
    SpMode last_mode = SpMode::kOff;
    double last_confidence = 0;
    int64_t decided_off = 0;
    int64_t decided_push = 0;
    int64_t decided_pull = 0;
    /// Caller's submission sequence at the latest RecordArrival.
    std::optional<int64_t> last_arrival_seq;
    std::list<uint64_t>::iterator lru_it;
  };

  /// Finds or creates the signature's entry, bumping it in the LRU and
  /// evicting the coldest beyond capacity. Requires mutex_ held.
  Entry& TouchLocked(uint64_t signature);

  /// Publishes `confidence` to the policy.confidence gauge (per-mille).
  void PublishConfidenceLocked(double confidence);

  CostModelOptions options_;
  Counter* decisions_shared_;
  Counter* decisions_unshared_;
  Counter* flips_;
  Gauge* confidence_gauge_;
  Gauge* measured_copy_ns_;
  Gauge* measured_attach_ns_;

  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lru_;  // front = most recently touched
  /// Measured transport costs (nanoseconds, EWMA). 0 until the first
  /// sample; guarded by mutex_ like the rest of the model state.
  double copy_cost_ewma_ns_ = 0;
  double attach_cost_ewma_ns_ = 0;
};

}  // namespace sharing
