// Engine-wide metrics: named monotonic counters grouped in a registry.
//
// The demo's GUI surfaces system measurements next to every plot (CPU
// times, SP opportunities exploited per stage, pages copied vs shared,
// buffer-pool hits). Components increment counters through a
// MetricsRegistry; benchmarks snapshot-and-diff around measurement windows.

#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"

namespace sharing {

/// One cache line: hot metric objects are padded and aligned to it so
/// two independently updated counters allocated back-to-back (the
/// registry allocates each separately, but small allocations share
/// malloc bins) never false-share a line — a counter bump on one core
/// must not invalidate an unrelated counter's line on another.
inline constexpr std::size_t kMetricCacheLine = 64;

/// A single monotonic counter. Thread-safe, relaxed ordering (metrics are
/// advisory, never used for synchronization). Cache-line padded: hot
/// counters like `sp.pages_retained`'s neighbors are updated from many
/// threads at once.
class alignas(kMetricCacheLine) Counter {
 public:
  Counter() = default;
  SHARING_DISALLOW_COPY_AND_MOVE(Counter);

  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  // alignas on the class rounds sizeof up to the full line — no manual
  // padding needed (the static_assert pins it).
  std::atomic<int64_t> value_{0};
};
static_assert(sizeof(Counter) == kMetricCacheLine);

/// A lock-free log-bucketed histogram for latency-style measurements.
/// Values are bucketed by power-of-two magnitude (64 buckets cover the
/// whole int64 range), so Record is one CLZ plus one relaxed fetch_add and
/// percentile queries are accurate to within a factor of two — plenty for
/// the order-of-magnitude latency comparisons the scenarios report.
class Histogram {
 public:
  Histogram() = default;
  SHARING_DISALLOW_COPY_AND_MOVE(Histogram);

  void Record(int64_t value) {
    counts_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // Track the recorded extrema so quantile estimates can be clamped
    // into the range actually observed (a bucket's geometric middle can
    // otherwise report above the max — e.g. a single value of exactly
    // 2^b estimates 1.5 * 2^b — or a nonsense positive value for
    // negative recordings, which all land in bucket 0).
    int64_t lo = min_.load(std::memory_order_relaxed);
    while (value < lo &&
           !min_.compare_exchange_weak(lo, value, std::memory_order_relaxed)) {
    }
    int64_t hi = max_.load(std::memory_order_relaxed);
    while (value > hi &&
           !max_.compare_exchange_weak(hi, value, std::memory_order_relaxed)) {
    }
  }

  int64_t TotalCount() const;

  /// Sum of every recorded value (the Prometheus summary `_sum` series).
  int64_t RecordedSum() const { return sum_.load(std::memory_order_relaxed); }

  /// Smallest / largest value ever recorded (0 when empty).
  int64_t RecordedMin() const;
  int64_t RecordedMax() const;

  /// Mean of recorded values (0 when empty).
  double Mean() const;

  /// Value at quantile `q` in [0,1], approximated by the geometric middle
  /// of the bucket containing it and clamped to [RecordedMin,
  /// RecordedMax]. Returns 0 when empty.
  int64_t ValueAtQuantile(double q) const;

  /// "count=N mean=M p50=.. p95=.. p99=.." (values in recorded units).
  std::string ToString() const;

 private:
  static constexpr int kBuckets = 64;

  static int BucketFor(int64_t value) {
    if (value <= 0) return 0;
    return 63 - __builtin_clzll(static_cast<uint64_t>(value));
  }

  std::atomic<int64_t> counts_[kBuckets] = {};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max_{std::numeric_limits<int64_t>::min()};
};

/// A bidirectional instantaneous value (e.g. pages currently retained by a
/// sharing channel) that also tracks its high-water mark. Thread-safe,
/// relaxed ordering like Counter, and cache-line padded like it (the
/// value and its high-water mark share one line by design — they are
/// always touched together).
class alignas(kMetricCacheLine) Gauge {
 public:
  Gauge() = default;
  SHARING_DISALLOW_COPY_AND_MOVE(Gauge);

  void Add(int64_t delta) {
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    int64_t hwm = high_water_.load(std::memory_order_relaxed);
    while (now > hwm &&
           !high_water_.compare_exchange_weak(hwm, now,
                                              std::memory_order_relaxed)) {
    }
  }
  void Sub(int64_t delta) { Add(-delta); }

  /// Overwrites the value (last writer wins) and updates the high-water
  /// mark. For gauges with "most recent observation" semantics (e.g.
  /// policy.confidence) as opposed to the Add/Sub accounting gauges.
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    int64_t hwm = high_water_.load(std::memory_order_relaxed);
    while (value > hwm &&
           !high_water_.compare_exchange_weak(hwm, value,
                                              std::memory_order_relaxed)) {
    }
  }

  int64_t Get() const { return value_.load(std::memory_order_relaxed); }

  /// Largest value ever observed (never reset; scope with snapshots).
  int64_t HighWaterMark() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> high_water_{0};
};
static_assert(sizeof(Gauge) == kMetricCacheLine);

/// A point-in-time copy of all counters in a registry.
using MetricsSnapshot = std::map<std::string, int64_t>;

/// A structured point-in-time copy of a registry that preserves metric
/// *kinds*. The flat MetricsSnapshot above is the lossy projection of
/// this (see FlattenTypedSnapshot) — exporters that must distinguish a
/// counter from a gauge from a histogram (the Prometheus text format
/// does) consume this form instead.
struct TypedMetricsSnapshot {
  struct GaugeValue {
    int64_t value = 0;
    int64_t high_water = 0;
  };
  struct HistogramValue {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t p50 = 0;
    int64_t p95 = 0;
    int64_t p99 = 0;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, HistogramValue> histograms;
};

/// Projects a typed snapshot onto the flat name->value map: every gauge
/// contributes `name` + `name.hwm`, every histogram `name.count` /
/// `.p50` / `.p95` / `.p99`. MetricsRegistry::Snapshot() is defined as
/// this projection of SnapshotTyped(), so the two can never drift.
MetricsSnapshot FlattenTypedSnapshot(const TypedMetricsSnapshot& typed);

/// Named counter registry. Counter objects are stable: a returned pointer
/// remains valid for the registry's lifetime, so hot paths can cache it.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  SHARING_DISALLOW_COPY_AND_MOVE(MetricsRegistry);

  /// Returns the counter registered under `name`, creating it on first use.
  Counter* GetCounter(const std::string& name);

  /// Returns the histogram registered under `name`, creating it on first
  /// use. Pointers are stable for the registry's lifetime.
  Histogram* GetHistogram(const std::string& name);

  /// Returns the gauge registered under `name`, creating it on first use.
  /// Pointers are stable for the registry's lifetime.
  Gauge* GetGauge(const std::string& name);

  /// Includes every counter under its name, every gauge under both
  /// `name` (current value) and `name + ".hwm"` (high-water mark), and
  /// every histogram under `name + ".count"` / `".p50"` / `".p95"` /
  /// `".p99"`. Counts delta cleanly; quantile keys are point-in-time
  /// estimates over the histogram's whole life, so their Delta is a
  /// drift signal, not a windowed quantile. Exactly
  /// FlattenTypedSnapshot(SnapshotTyped()).
  MetricsSnapshot Snapshot() const;

  /// Like Snapshot() but kind-preserving — the form the Prometheus
  /// exporter (and any other kind-aware serializer) consumes.
  TypedMetricsSnapshot SnapshotTyped() const;

  /// Returns per-counter deltas `after - before` (counters absent from
  /// `before` count from zero).
  static MetricsSnapshot Delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

  /// Zeroes nothing (counters are monotonic); use Snapshot/Delta to scope
  /// measurements. Provided for tests that want a fresh registry instead.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

// Canonical metric names used across modules, so benchmarks and tests can
// reference them without typo risk.
namespace metrics {
inline constexpr const char* kBufferPoolHits = "bufferpool.hits";
inline constexpr const char* kBufferPoolMisses = "bufferpool.misses";
inline constexpr const char* kBufferPoolEvictions = "bufferpool.evictions";
inline constexpr const char* kDiskPageReads = "disk.page_reads";
inline constexpr const char* kDiskPageWrites = "disk.page_writes";
inline constexpr const char* kScanPagesRead = "scan.pages_read";
inline constexpr const char* kScanSharedAttach = "scan.shared_attach";
inline constexpr const char* kSpOpportunities = "sp.opportunities";
inline constexpr const char* kSpPagesCopied = "sp.pages_copied";
inline constexpr const char* kSpPagesShared = "sp.pages_shared";
inline constexpr const char* kSpBytesCopied = "sp.bytes_copied";
inline constexpr const char* kSpPagesRetained = "sp.pages_retained";  // gauge
inline constexpr const char* kSpPagesReclaimed = "sp.pages_reclaimed";
inline constexpr const char* kSpPagesSpilled = "sp.pages_spilled";
inline constexpr const char* kSpSpillBytes = "sp.spill_bytes";  // gauge
inline constexpr const char* kSpUnspillReads = "sp.unspill_reads";
// SPL hot-path contention: how often readers left the lock-free fast
// path (took the list mutex) or blocked on the producer entirely.
inline constexpr const char* kSpLockWaits = "sp.lock_waits";
inline constexpr const char* kSpReaderParks = "sp.reader_parks";
inline constexpr const char* kIoReadsIssued = "io.reads_issued";
inline constexpr const char* kIoWritesIssued = "io.writes_issued";
inline constexpr const char* kIoQueueDepth = "io.queue_depth";  // gauge
inline constexpr const char* kIoStallMicros = "io.stall_micros";
// Per-priority-class scheduler visibility (the aggregates above hide
// which class is backed up or starved).
inline constexpr const char* kIoQueueDepthPrefetch =
    "io.queue_depth.prefetch";  // gauge
inline constexpr const char* kIoQueueDepthFaultback =
    "io.queue_depth.faultback";  // gauge
inline constexpr const char* kIoQueueDepthSpill =
    "io.queue_depth.spill";  // gauge
inline constexpr const char* kIoStallMicrosPrefetch =
    "io.stall_micros.prefetch";
inline constexpr const char* kIoStallMicrosFaultback =
    "io.stall_micros.faultback";
inline constexpr const char* kIoStallMicrosSpill = "io.stall_micros.spill";
// Adaptive-admission cost model (see qpipe/cost_model.h).
inline constexpr const char* kPolicyDecisionsShared =
    "policy.decisions_shared";
inline constexpr const char* kPolicyDecisionsUnshared =
    "policy.decisions_unshared";
inline constexpr const char* kPolicyFlips = "policy.flips";
inline constexpr const char* kPolicyConfidence = "policy.confidence";  // gauge
// Online transport-cost measurements (EWMA, nanoseconds) replacing the
// cost model's fixed copy/attach constants once samples exist.
inline constexpr const char* kPolicyMeasuredCopyNs =
    "policy.measured_copy_ns";  // gauge
inline constexpr const char* kPolicyMeasuredAttachNs =
    "policy.measured_attach_ns";  // gauge
inline constexpr const char* kCjoinFactTuplesIn = "cjoin.fact_tuples_in";
inline constexpr const char* kCjoinTuplesOut = "cjoin.tuples_out";
inline constexpr const char* kCjoinTuplesDropped = "cjoin.tuples_dropped";
inline constexpr const char* kCjoinQueriesAdmitted = "cjoin.queries_admitted";
inline constexpr const char* kCjoinQueriesCompleted = "cjoin.queries_completed";
inline constexpr const char* kCjoinBitmapAndOps = "cjoin.bitmap_and_ops";
inline constexpr const char* kCjoinAdmissionEpochs = "cjoin.admission_epochs";
inline constexpr const char* kCjoinAdmissionMicros = "cjoin.admission_micros";
inline constexpr const char* kQueriesFinished = "engine.queries_finished";
// Span-duration histograms fed by the tracing instrumentation (values in
// microseconds; see docs/TRACING.md). Recorded whether or not tracing is
// enabled — histograms are the always-on aggregate view, traces the
// opt-in per-event one.
inline constexpr const char* kQueryLatencyMicros = "query.latency";
inline constexpr const char* kStageRunPacketMicros = "stage.run_packet";
inline constexpr const char* kIoDispatchWaitPrefetch =
    "io.dispatch_wait.prefetch";
inline constexpr const char* kIoDispatchWaitFaultback =
    "io.dispatch_wait.faultback";
inline constexpr const char* kIoDispatchWaitSpill = "io.dispatch_wait.spill";
// Stall watchdog (src/server/watchdog.h): per-tick condition counters —
// each counts *observations* (one per offending object per sample), so
// a sustained stall keeps climbing while a transient blip adds a few.
inline constexpr const char* kWatchdogTicks = "watchdog.ticks";
inline constexpr const char* kWatchdogQueriesOverSlo =
    "watchdog.queries_over_slo";
inline constexpr const char* kWatchdogParkedReaders =
    "watchdog.parked_readers";
inline constexpr const char* kWatchdogIoSaturation = "watchdog.io_saturation";
inline constexpr const char* kWatchdogSpillThrash = "watchdog.spill_thrash";
inline constexpr const char* kWatchdogUnhealthy =
    "watchdog.unhealthy";  // gauge
// Fault domains (src/common/fault.h and docs/ROBUSTNESS.md): injected
// faults, the IoScheduler's transient-failure retries, the governor's
// spill-disabled degradation latch, and satellite unshared re-runs after
// a host failure poisoned the sharing channel.
inline constexpr const char* kFaultInjected = "fault.injected";
inline constexpr const char* kIoRetries = "io.retries";
inline constexpr const char* kIoRetryGaveUp = "io.retry_gave_up";
inline constexpr const char* kSpSpillDisabled = "sp.spill_disabled";  // gauge
inline constexpr const char* kSharingSatelliteRerun =
    "sharing.satellite_rerun";
}  // namespace metrics

}  // namespace sharing
