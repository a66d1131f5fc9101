// StatsReporter: the metrics export pipeline's periodic emitter.
//
// A background thread snapshots a MetricsRegistry every
// stats_report_period_ms and appends one JSON line per snapshot to a
// sink — a file path, stderr, or a test-provided callback. Lines are
// self-contained ({"uptime_ms":..., "metrics":{name:value,...}}), so a
// run's sink file is directly greppable/plottable and the last line is
// always the freshest full snapshot. Stop() (and the destructor) emit
// one final snapshot so even a run shorter than the period exports its
// totals.
//
// The reporter only ever *reads* the registry (snapshots take the
// registry mutex briefly); it holds no engine references, so the owner
// may destroy it before or after the engine — QPipeEngine owns one when
// QPipeOptions::stats_report_period_ms > 0 and stops it first in its
// destructor.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/macros.h"
#include "common/metrics.h"

namespace sharing {

class StatsReporter {
 public:
  struct Options {
    MetricsRegistry* metrics = &MetricsRegistry::Global();

    /// Emit period. 0 disables the periodic timer (only the final
    /// snapshot at Stop is emitted).
    std::size_t period_ms = 1000;

    /// Sink file (appended). Empty = stderr.
    std::string path;

    /// Test sink: when set, lines go here instead of path/stderr.
    std::function<void(const std::string& line)> sink;
  };

  /// Starts the reporter thread.
  explicit StatsReporter(Options options);
  ~StatsReporter();

  SHARING_DISALLOW_COPY_AND_MOVE(StatsReporter);

  /// Emits a final snapshot, stops and joins the thread. Idempotent.
  void Stop();

  /// Emits one snapshot line (MetricsJsonLine) right now (also what the
  /// timer calls).
  void EmitNow();

  int64_t lines_emitted() const;

 private:
  void Loop();
  void Emit(const std::string& line);

  Options options_;
  const std::chrono::steady_clock::time_point start_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t lines_emitted_ = 0;
  FILE* file_ = nullptr;  // owned when non-null (path sink)

  std::thread thread_;
};

}  // namespace sharing
