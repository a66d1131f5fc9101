// Per-query execution context: cancellation, metrics and explain
// plumbing.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "exec/explain.h"

namespace sharing {

class ExecContext {
 public:
  explicit ExecContext(uint64_t query_id = 0,
                       MetricsRegistry* metrics = &MetricsRegistry::Global())
      : query_id_(query_id),
        metrics_(metrics),
        explain_(std::make_shared<ExplainState>()) {}

  uint64_t query_id() const { return query_id_; }
  MetricsRegistry* metrics() const { return metrics_; }

  /// The query's sharing-explain accumulator (always present; stages
  /// append admission records, workers charge RunPacket time).
  const ExplainStateRef& explain() const { return explain_; }

  /// Cooperative cancellation (paper Fig. 1a: a satellite query may cancel
  /// mid-flight). Operators poll this between pages.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Arms the query's wall-clock deadline: `deadline_micros` is absolute
  /// in the Trace::NowMicros timebase, `timeout_ms` the budget it came
  /// from (for the error message). Called once at submission, before any
  /// packet can observe the context; 0 = no deadline.
  void ArmDeadline(int64_t deadline_micros, int64_t timeout_ms) {
    timeout_ms_ = timeout_ms;
    deadline_micros_.store(deadline_micros, std::memory_order_release);
  }

  /// Cancellation OR deadline expiry — the single stop check operators
  /// and park loops poll between pages. Expiry latches, so the verdict
  /// (and TerminalStatus) is stable once taken; the clock is only read
  /// while a deadline is armed and not yet hit.
  bool StopRequested() {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    const int64_t deadline =
        deadline_micros_.load(std::memory_order_acquire);
    if (deadline == 0) return false;
    if (deadline_hit_.load(std::memory_order_acquire)) return true;
    if (Trace::NowMicros() < deadline) return false;
    deadline_hit_.store(true, std::memory_order_release);
    return true;
  }

  bool deadline_exceeded() const {
    return deadline_hit_.load(std::memory_order_acquire);
  }

  /// Why the query stopped: DeadlineExceeded beats Aborted (a watchdog
  /// escalation cancels *because* the deadline passed — the deadline is
  /// the root cause the caller should see), OK when still running.
  Status TerminalStatus() const {
    if (deadline_hit_.load(std::memory_order_acquire)) {
      return Status::DeadlineExceeded(
          "query exceeded its " + std::to_string(timeout_ms_) +
          " ms deadline");
    }
    if (cancelled()) return Status::Aborted("query cancelled");
    return Status::OK();
  }

 private:
  uint64_t query_id_;
  MetricsRegistry* metrics_;
  ExplainStateRef explain_;
  std::atomic<bool> cancelled_{false};
  /// Absolute deadline (trace timebase micros); 0 = none.
  std::atomic<int64_t> deadline_micros_{0};
  /// Latched by the first StopRequested() past the deadline.
  std::atomic<bool> deadline_hit_{false};
  /// The configured budget, for the DeadlineExceeded message only.
  int64_t timeout_ms_ = 0;
};

using ExecContextRef = std::shared_ptr<ExecContext>;

/// How often a wait with a query context re-checks its stop.
inline constexpr std::chrono::milliseconds kStopPollSlice{10};

/// The query path's one stop-aware wait: blocks on `cv` under `lock`
/// until `ready()`. With a context the wait runs in kStopPollSlice
/// slices and checks StopRequested() before each one, so a deadline or
/// cancel reaches a reader parked on an idle producer; a stop returns
/// TerminalStatus(). A null context (a stream no query owns) waits
/// untimed. OK once `ready()` holds.
template <typename Ready>
Status WaitUnlessStopped(ExecContext* ctx, std::condition_variable& cv,
                         std::unique_lock<std::mutex>& lock, Ready ready) {
  if (ctx == nullptr) {
    cv.wait(lock, ready);
    return Status::OK();
  }
  while (!ready()) {
    if (ctx->StopRequested()) return ctx->TerminalStatus();
    cv.wait_for(lock, kStopPollSlice);
  }
  return Status::OK();
}

}  // namespace sharing
