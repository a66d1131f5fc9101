#include "qpipe/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/trace.h"

namespace sharing {

// ---------------------------------------------------------------------------
// SignatureStats
// ---------------------------------------------------------------------------

void SignatureStats::Ring::Push(double v) {
  if (capacity_ == 0) return;
  if (values_.size() < capacity_) {
    values_.push_back(v);
    return;
  }
  values_[next_] = v;  // overwrite the oldest (next_ trails the newest)
  next_ = (next_ + 1) % capacity_;
}

double SignatureStats::Ring::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

SignatureStats::SignatureStats(std::size_t capacity)
    : work_(std::max<std::size_t>(1, capacity)),
      gaps_(std::max<std::size_t>(1, capacity)),
      sessions_(std::max<std::size_t>(1, capacity)) {}

void SignatureStats::RecordArrival(int64_t now_micros) {
  if (has_arrival_) {
    const int64_t gap = now_micros - last_arrival_micros_;
    gaps_.Push(static_cast<double>(gap > 0 ? gap : 0));
  }
  last_arrival_micros_ = now_micros;
  has_arrival_ = true;
}

void SignatureStats::RecordExecution(double work_micros) {
  // Floor at one microsecond: a sub-tick measurement must not convince
  // the model that repeating the work is literally free.
  work_.Push(std::max(1.0, work_micros));
}

void SignatureStats::RecordSession(const SessionSample& sample) {
  sessions_.satellites.Push(sample.satellites);
  sessions_.pages.Push(sample.pages);
  sessions_.lag.Push(sample.lag);
  sessions_.retention.Push(sample.retention);
}

double SignatureStats::MeanWorkMicros() const { return work_.Mean(); }

double SignatureStats::WorkMicrosAtQuantile(double q) const {
  if (work_.size() == 0) return 0;
  std::vector<double> sorted = work_.values();
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(1.0, std::max(0.0, q));
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(clamped * n));
  if (rank > 0) --rank;  // nearest-rank, 0-indexed
  return sorted[std::min(rank, sorted.size() - 1)];
}

double SignatureStats::MeanPages() const { return sessions_.pages.Mean(); }

double SignatureStats::MeanSatellites() const {
  return sessions_.satellites.Mean();
}

double SignatureStats::MeanLag() const { return sessions_.lag.Mean(); }

double SignatureStats::MeanRetention() const {
  return sessions_.retention.Mean();
}

double SignatureStats::MeanArrivalGapMicros() const {
  if (gaps_.size() == 0) return std::numeric_limits<double>::infinity();
  return gaps_.Mean();
}

// ---------------------------------------------------------------------------
// SharingCostModel
// ---------------------------------------------------------------------------

SharingCostModel::SharingCostModel(CostModelOptions options,
                                   MetricsRegistry* metrics)
    : options_(options),
      decisions_shared_(
          metrics->GetCounter(metrics::kPolicyDecisionsShared)),
      decisions_unshared_(
          metrics->GetCounter(metrics::kPolicyDecisionsUnshared)),
      flips_(metrics->GetCounter(metrics::kPolicyFlips)),
      confidence_gauge_(metrics->GetGauge(metrics::kPolicyConfidence)),
      measured_copy_ns_(metrics->GetGauge(metrics::kPolicyMeasuredCopyNs)),
      measured_attach_ns_(
          metrics->GetGauge(metrics::kPolicyMeasuredAttachNs)) {
  // Enforced here, not at the plumbing sites: a zero gate would let
  // Decide() speak confidently from an empty ring.
  options_.min_samples = std::max<std::size_t>(1, options_.min_samples);
}

SharingCostModel::Entry& SharingCostModel::TouchLocked(uint64_t signature) {
  auto it = entries_.find(signature);
  if (it != entries_.end()) {
    if (it->second.lru_it != lru_.begin()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    }
    return it->second;
  }
  const std::size_t capacity = std::max<std::size_t>(1, options_.capacity);
  while (entries_.size() >= capacity) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(signature);
  it = entries_.emplace(signature, Entry(options_.history)).first;
  it->second.lru_it = lru_.begin();
  return it->second;
}

int64_t SharingCostModel::RecordArrival(uint64_t signature,
                                        int64_t now_micros,
                                        int64_t stage_seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = TouchLocked(signature);
  entry.stats.RecordArrival(now_micros);
  const std::optional<int64_t> previous = entry.last_arrival_seq;
  entry.last_arrival_seq = stage_seq;
  return previous ? stage_seq - *previous
                  : std::numeric_limits<int64_t>::max();
}

void SharingCostModel::RecordExecution(uint64_t signature,
                                       double work_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  TouchLocked(signature).stats.RecordExecution(work_micros);
}

void SharingCostModel::RecordSession(
    uint64_t signature, const SignatureStats::SessionSample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  TouchLocked(signature).stats.RecordSession(sample);
}

void SharingCostModel::RecordCopyCost(double copy_ns_per_page) {
  if (!(copy_ns_per_page > 0)) return;  // also rejects NaN
  std::lock_guard<std::mutex> lock(mutex_);
  copy_cost_ewma_ns_ =
      copy_cost_ewma_ns_ == 0
          ? copy_ns_per_page
          : (1.0 - kCostEwmaAlpha) * copy_cost_ewma_ns_ +
                kCostEwmaAlpha * copy_ns_per_page;
  measured_copy_ns_->Set(static_cast<int64_t>(copy_cost_ewma_ns_));
}

void SharingCostModel::RecordAttachCost(double attach_ns) {
  if (!(attach_ns > 0)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  attach_cost_ewma_ns_ =
      attach_cost_ewma_ns_ == 0
          ? attach_ns
          : (1.0 - kCostEwmaAlpha) * attach_cost_ewma_ns_ +
                kCostEwmaAlpha * attach_ns;
  measured_attach_ns_->Set(static_cast<int64_t>(attach_cost_ewma_ns_));
}

void SharingCostModel::PublishConfidenceLocked(double confidence) {
  // Set, not Add: several stages' models share this gauge, and its
  // contract is "the most recent model decision's confidence" (last
  // writer wins), with the hwm the most confident decision ever.
  confidence_gauge_->Set(static_cast<int64_t>(confidence * 1000.0));
}

CostDecision SharingCostModel::Decide(uint64_t signature,
                                      const CostModelEnvironment& env) {
  // The span carries the verdict (mode + rounded cost estimates) as args,
  // so a trace shows *why* a packet hosted, attached, or ran unshared.
  TraceSpan span("policy", "policy.decide", /*query_id=*/0, signature);
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = TouchLocked(signature);
  const SignatureStats& stats = entry.stats;

  CostDecision decision;
  if (stats.session_samples() < options_.min_samples ||
      stats.work_samples() < options_.min_samples) {
    // Thin history: the prior, pull with confidence 0 — the transport
    // with the widest attach window and no copies. It returns before the
    // sticky bookkeeping, so it never becomes the incumbent and moves no
    // policy.* metric or decided_* count.
    span.AddArg("mode", static_cast<int64_t>(decision.mode));
    return decision;
  }
  CostEstimate& est = decision.estimate;

  const double work = stats.MeanWorkMicros();
  est.work_micros = work;

  // Expected satellites per hosted session: what history shows, raised by
  // the arrival forecast — identical queries arriving faster than one
  // production (gap < W) must overlap even if past sessions closed before
  // anyone attached.
  double satellites = stats.MeanSatellites();
  const double gap = stats.MeanArrivalGapMicros();
  if (std::isfinite(gap) && gap > 0) {
    satellites = std::max(satellites, work / gap);
  }
  est.expected_satellites = satellites;

  const double pages = stats.MeanPages();
  const double lag = stats.MeanLag();
  est.retention_pages = stats.MeanRetention();

  // Unshared: the newcomer and every expected twin repeat the work.
  est.unshared_micros = (1.0 + satellites) * work;

  // Push: one execution plus a deep copy of every page into every
  // satellite FIFO, all serialized through the producer; a consumer that
  // historically lags to the FIFO capacity convoys the host for the whole
  // production. The per-page copy cost is the measured EWMA once the
  // channels have reported samples, the model prior until then.
  const double copy_micros = copy_cost_ewma_ns_ > 0
                                 ? copy_cost_ewma_ns_ / 1000.0
                                 : kPushCopyMicrosPerPage;
  const bool convoys = env.fifo_capacity > 0 &&
                       lag >= static_cast<double>(env.fifo_capacity);
  est.push_micros = work + kHostSetupMicros +
                    satellites * pages * copy_micros +
                    (convoys ? pages * kConvoyStallMicrosPerPage : 0.0);

  // Pull: one execution plus per-satellite attach and per-page retention
  // bookkeeping; retention the budget cannot hold pays a spill round trip
  // per page (write it out, fault it back for the laggard).
  double spill_pages = 0;
  double spill_micros = 0;
  if (env.budget_pages > 0 &&
      est.retention_pages > static_cast<double>(env.budget_pages)) {
    const double excess =
        est.retention_pages - static_cast<double>(env.budget_pages);
    if (env.spill_usable) {
      spill_pages = excess;
      spill_micros = excess * kSpillRoundTripMicrosPerPage;
    } else {
      // Budget configured but the store is broken: the excess stays
      // resident. Surcharge the retention term instead of pretending the
      // overflow is absorbable.
      spill_micros = excess * 4.0 * kPullRetainMicrosPerPage;
    }
  }
  est.spill_pages = spill_pages;
  // Per satellite: the measured (or prior) mechanical attach plus the
  // fixed service share — serving one more pull reader costs the host
  // wakeups and bookkeeping for the whole session, not just the
  // AttachReader call the EWMA can time.
  const double attach_micros = (attach_cost_ewma_ns_ > 0
                                    ? attach_cost_ewma_ns_ / 1000.0
                                    : kPullAttachMicros) +
                               kPullSatelliteServiceMicros;
  est.pull_micros = work + kHostSetupMicros + satellites * attach_micros +
                    est.retention_pages * kPullRetainMicrosPerPage +
                    spill_micros;

  const auto cost_of = [&est](SpMode mode) {
    switch (mode) {
      case SpMode::kOff:
        return est.unshared_micros;
      case SpMode::kPush:
        return est.push_micros;
      default:
        return est.pull_micros;
    }
  };

  SpMode best = SpMode::kOff;
  for (SpMode mode : {SpMode::kPush, SpMode::kPull}) {
    if (cost_of(mode) < cost_of(best)) best = mode;
  }

  // Sticky decisions: the challenger must beat the incumbent — the
  // signature's previous decision, or the cheaper shared transport for a
  // first history-backed decision (sharing stays the default, as in the
  // thin-history prior) — by more than the hysteresis margin.
  const SpMode incumbent =
      entry.has_decision
          ? entry.last_mode
          : (est.push_micros <= est.pull_micros ? SpMode::kPush
                                                : SpMode::kPull);
  SpMode chosen = best;
  if (best != incumbent) {
    const double incumbent_cost = cost_of(incumbent);
    if (incumbent_cost <= 0 ||
        incumbent_cost - cost_of(best) <= options_.hysteresis * incumbent_cost) {
      chosen = incumbent;
    }
  }
  decision.mode = chosen;
  decision.spill_preferred =
      chosen == SpMode::kPull && spill_pages > 0 && env.spill_usable;

  // Confidence: history depth times the cost margin over the best
  // alternative. Monotonically non-decreasing in samples for a
  // stationary signature (the margin is then constant while the depth
  // factor only grows).
  double runner_up = std::numeric_limits<double>::infinity();
  for (SpMode mode : {SpMode::kOff, SpMode::kPush, SpMode::kPull}) {
    if (mode != chosen) runner_up = std::min(runner_up, cost_of(mode));
  }
  double margin = 0;
  if (std::isfinite(runner_up) && runner_up > 0) {
    margin = (runner_up - cost_of(chosen)) / runner_up;
    margin = std::min(1.0, std::max(0.0, margin));
  }
  const double depth =
      static_cast<double>(std::min(stats.session_samples(),
                                   stats.work_samples())) /
      static_cast<double>(std::max<std::size_t>(1, options_.history));
  decision.confidence = std::min(1.0, depth) * (0.5 + 0.5 * margin);

  // Bookkeeping + metrics.
  if (entry.has_decision && chosen != entry.last_mode) flips_->Increment();
  entry.has_decision = true;
  entry.last_mode = chosen;
  entry.last_confidence = decision.confidence;
  switch (chosen) {
    case SpMode::kOff:
      ++entry.decided_off;
      decisions_unshared_->Increment();
      break;
    case SpMode::kPush:
      ++entry.decided_push;
      decisions_shared_->Increment();
      break;
    default:
      ++entry.decided_pull;
      decisions_shared_->Increment();
      break;
  }
  PublishConfidenceLocked(decision.confidence);

  span.AddArg("mode", static_cast<int64_t>(chosen));
  span.AddArg("unshared_us", static_cast<int64_t>(est.unshared_micros));
  span.AddArg("push_us", static_cast<int64_t>(est.push_micros));
  span.AddArg("pull_us", static_cast<int64_t>(est.pull_micros));
  return decision;
}

std::vector<SharingCostModel::SignatureSnapshot> SharingCostModel::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SignatureSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [sig, entry] : entries_) {
    SignatureSnapshot snap;
    snap.signature = sig;
    snap.work_samples = entry.stats.work_samples();
    snap.session_samples = entry.stats.session_samples();
    snap.mean_work_micros = entry.stats.MeanWorkMicros();
    snap.p95_work_micros = entry.stats.WorkMicrosAtQuantile(0.95);
    snap.mean_pages = entry.stats.MeanPages();
    snap.mean_satellites = entry.stats.MeanSatellites();
    snap.mean_retention = entry.stats.MeanRetention();
    snap.mean_arrival_gap_micros = entry.stats.MeanArrivalGapMicros();
    snap.decided_off = entry.decided_off;
    snap.decided_push = entry.decided_push;
    snap.decided_pull = entry.decided_pull;
    snap.has_decision = entry.has_decision;
    snap.last_mode = entry.last_mode;
    snap.last_confidence = entry.last_confidence;
    out.push_back(snap);
  }
  return out;
}

std::string SharingCostModel::DebugDump() const {
  std::string out;
  char line[256];
  for (const SignatureSnapshot& s : Snapshot()) {
    std::snprintf(
        line, sizeof(line),
        "sig=%016llx works=%zu sessions=%zu W=%.0fus p95=%.0fus pages=%.1f "
        "sat=%.2f retention=%.1f decisions=%lld/%lld/%lld (off/push/pull) "
        "last=%s conf=%.2f\n",
        static_cast<unsigned long long>(s.signature), s.work_samples,
        s.session_samples, s.mean_work_micros, s.p95_work_micros,
        s.mean_pages, s.mean_satellites, s.mean_retention,
        static_cast<long long>(s.decided_off),
        static_cast<long long>(s.decided_push),
        static_cast<long long>(s.decided_pull),
        s.has_decision ? SpModeToString(s.last_mode).data() : "-",
        s.last_confidence);
    out += line;
  }
  return out;
}

}  // namespace sharing
