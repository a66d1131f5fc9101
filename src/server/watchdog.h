// Watchdog: the engine's stall detector.
//
// A single background thread samples engine state through an
// EngineInspector once per period and flags four pathologies the
// metrics spine can show but nothing previously *judged*:
//
//   1. queries over the age SLO — a query in flight longer than
//      `query_slo_ms` (progressive degradation, lost wakeup, or an
//      admission decision that backfired);
//   2. stuck parked readers — a pull-channel reader parked longer than
//      `parked_reader_ms` while its channel is still open. The message
//      distinguishes "pages are published past the reader's cursor"
//      (a wakeup bug) from "the producer itself is wedged";
//   3. I/O class saturation — any IoScheduler priority class's queue
//      depth at or above `io_queue_depth_limit`;
//   4. spill thrash — between two consecutive ticks, pages were both
//      spilled AND faulted back, and their sum exceeds
//      `spill_thrash_pages` (the SP budget is too small for the working
//      set, so the engine is paying disk twice for the same pages).
//
// Each observation bumps a `watchdog.*` counter and emits a
// rate-limited WARNING through common/logging (one limiter per
// condition, so a noisy condition cannot silence a different one). The
// verdict is published as Health{healthy, reasons} — served by the
// admin server's /healthz as 200/503 — and mirrored in the
// `watchdog.unhealthy` gauge. A condition that clears flips health back
// on the next tick.
//
// The watchdog only READS: inspector callbacks ride existing engine
// synchronization, and counter deltas come from the metrics registry.
// Tests drive it deterministically with TickNow() and synthetic
// inspectors (see tests/admin_server_test.cc).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/macros.h"
#include "server/introspection.h"

namespace sharing {

class Watchdog {
 public:
  struct Options {
    /// Sampling period for the background thread. 0 = no thread; the
    /// owner (or a test) drives sampling manually via TickNow().
    std::size_t period_ms = 1000;

    /// A live query older than this is flagged (condition 1).
    std::size_t query_slo_ms = 10000;

    /// A reader parked longer than this on an unclosed channel is
    /// flagged (condition 2).
    std::size_t parked_reader_ms = 5000;

    /// An I/O priority class with at least this many queued jobs is
    /// flagged (condition 3). 0 disables the check.
    std::size_t io_queue_depth_limit = 256;

    /// Spilled + faulted-back pages per tick beyond which the engine is
    /// thrashing (condition 4). 0 disables the check.
    std::size_t spill_thrash_pages = 512;

    /// Minimum interval between emitted warnings, per condition.
    std::size_t warn_interval_ms = 5000;
  };

  /// The verdict /healthz serves. `reasons` is empty when healthy;
  /// `details` carries degraded-but-running conditions (e.g. a latched-
  /// off spill tier) that inform without flipping the verdict to 503.
  struct Health {
    bool healthy = true;
    int64_t ticks = 0;
    std::vector<std::string> reasons;
    std::vector<std::string> details;
  };

  Watchdog(Options options, EngineInspector inspector);
  ~Watchdog();

  SHARING_DISALLOW_COPY_AND_MOVE(Watchdog);

  /// Starts the background sampling thread (no-op when period_ms == 0).
  void Start();

  /// Stops and joins the thread. Idempotent; also run by the destructor.
  void Stop();

  /// Runs one sampling pass synchronously on the caller's thread and
  /// publishes the resulting verdict. The deterministic test surface;
  /// safe to call with or without the thread running.
  void TickNow();

  Health GetHealth() const;

 private:
  void Loop();

  Options options_;
  EngineInspector inspector_;

  Counter* ticks_counter_;
  Counter* queries_over_slo_;
  Counter* parked_readers_;
  Counter* io_saturation_;
  Counter* spill_thrash_;
  Gauge* unhealthy_;

  LogRateLimiter warn_query_;
  LogRateLimiter warn_parked_;
  LogRateLimiter warn_io_;
  LogRateLimiter warn_thrash_;

  /// Last tick's cumulative spill/unspill counters (condition 4 deltas).
  int64_t last_pages_spilled_ = 0;
  int64_t last_unspill_reads_ = 0;
  bool have_baseline_ = false;

  mutable std::mutex health_mutex_;
  Health health_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace sharing
