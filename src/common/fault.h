// Deterministic, seedable fault injection for the whole engine.
//
// A *fault point* is a named site in production code that asks the
// process-global FaultRegistry whether to misbehave right now:
//
//   if (auto hit = SHARING_FAULT_POINT(fault_points::kDiskRead)) {
//     return Status::IoError("injected read fault");
//   }
//
// Disarmed (the production default) a check is ONE relaxed atomic load
// and a branch — no lock, no clock, no allocation (bench_ablation_faults
// gates the overhead at < 2% of a page append). Armed, the check takes
// the registry mutex (faults are a test/chaos facility; the slow path is
// the point).
//
// The schedule is armed from a spec string (EngineConfig::fault_spec or
// the admin /faults endpoint):
//
//   spec    := entry (',' entry)*
//   entry   := 'seed' '=' <uint64>            -- schedule seed (default 42)
//            | <point> '=' trigger [ '*' <int64> ]   -- payload (e.g. micros)
//   trigger := 'p' <float>     -- fire each trigger with probability p
//            | 'n' <uint64>    -- fire every Nth trigger (N >= 1)
//            | 'once'          -- fire exactly the first trigger
//
// Example: "seed=7,disk.read=p0.01,io.dispatch.delay=n10*2000,spill.open=once"
//
// Determinism: probability draws come from a per-point xoshiro stream
// seeded with seed ^ fnv1a(point), so a fixed spec produces the same
// per-point fire sequence run to run (across threads the Nth trigger may
// be claimed by a different thread, but WHICH trigger ordinals fire is
// fixed). Every fire increments the `fault.injected` counter.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"

namespace sharing {

/// Canonical fault-point names. Sites and tests reference these, never
/// string literals (mirrors the metrics-name convention).
namespace fault_points {
inline constexpr const char* kDiskRead = "disk.read";
inline constexpr const char* kDiskWrite = "disk.write";
inline constexpr const char* kDiskWriteShort = "disk.write.short";
inline constexpr const char* kDiskEnospc = "disk.enospc";
inline constexpr const char* kIoDispatchFail = "io.dispatch.fail";
inline constexpr const char* kIoDispatchDelay = "io.dispatch.delay";
inline constexpr const char* kSpillOpen = "spill.open";
inline constexpr const char* kSharingAppend = "sharing.append";
}  // namespace fault_points

/// One fault-point consultation's outcome.
struct FaultHit {
  bool fired = false;
  /// The entry's `*<int64>` payload (0 when none) — e.g. injected latency
  /// in micros for delay points.
  int64_t payload = 0;
  explicit operator bool() const { return fired; }
};

class FaultRegistry {
 public:
  /// The process-wide registry every SHARING_FAULT_POINT consults.
  static FaultRegistry& Global();

  /// Parses `spec` and replaces the entire schedule atomically. An empty
  /// spec is equivalent to Disarm(). On a parse error the previous
  /// schedule is left untouched.
  Status Arm(const std::string& spec);

  /// Clears the schedule; every point goes quiet.
  void Disarm();

  bool armed() const {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  /// Hot path. Disarmed: one relaxed load + branch. Armed: registry
  /// mutex, trigger-count bump, schedule evaluation.
  FaultHit Check(const char* point);

  /// Counts `fault.injected` in `metrics` from now on (the engine binds
  /// its own registry at construction so fires show up on /metrics).
  void BindMetrics(MetricsRegistry* metrics);

  /// Rebinds to MetricsRegistry::Global() if `metrics` is still the bound
  /// registry (an engine's destructor calls this, so a later fire never
  /// writes into a destroyed registry).
  void UnbindMetrics(MetricsRegistry* metrics);

  /// JSON dump for the admin /faults endpoint: armed flag, spec, seed,
  /// and per-point {mode, arg, payload, triggers, fires}.
  std::string DescribeJson() const;

  /// Total fires since the last Arm (test convenience).
  uint64_t TotalFires() const;

  /// Fires of one point since the last Arm (0 when it is not armed).
  uint64_t Fires(const char* point) const;

 private:
  FaultRegistry() = default;

  enum class Mode { kProbability, kEveryNth, kOnce };

  struct PointState {
    Mode mode = Mode::kOnce;
    double probability = 0;
    uint64_t every_n = 1;
    int64_t payload = 0;
    uint64_t triggers = 0;  // times the site consulted this point
    uint64_t fires = 0;     // times it fired
    Rng rng{0};
  };

  /// Number of armed points; doubles as the disarmed fast-path flag.
  std::atomic<int> armed_points_{0};

  mutable std::mutex mutex_;
  std::unordered_map<std::string, PointState> points_;
  uint64_t seed_ = 42;
  std::string spec_;
  MetricsRegistry* bound_metrics_ = nullptr;
  Counter* injected_ = nullptr;
};

/// Consults the global registry for `point`.
inline FaultHit FaultCheck(const char* point) {
  return FaultRegistry::Global().Check(point);
}

#define SHARING_FAULT_POINT(point) ::sharing::FaultCheck(point)

}  // namespace sharing
