// IoScheduler: the engine-wide asynchronous I/O service.
//
// The paper's disk-resident experiments (§2 "Sharing in the I/O layer",
// §6) depend on the I/O path never stalling the sharing fast path: SP
// producers must keep streaming at memory speed while disk traffic —
// spill writes, fault-back reads, circular-scan readahead — is scheduled
// separately, by priority. This module is that separation: a small pool
// of I/O worker threads draining three strict priority classes
//
//     kScanPrefetch  >  kFaultBack  >  kSpillWrite
//
// (readahead keeps every consumer of a shared circular scan moving;
// fault-backs unblock a reader that is already waiting; spill writes are
// pure background — nobody waits on durability except the memory budget).
// A worker has one dispatch path: pop the head of the highest-priority
// non-empty class, then run it or, if its ticket was cancelled, skip it.
// The device's speed is the disk model's business (`DiskManager` sleeps
// for each modeled read), not the scheduler's.
//
// Callers get an `IoTicket` — a tiny completion future with
// best-effort cancellation. A job whose ticket is cancelled before a
// worker picks it up never runs (its `on_skip` hook fires instead, so
// owners can roll back bookkeeping); a running job always completes.
// Every client of the scheduler treats unfinished I/O as "state stays in
// memory", which is what makes cancellation and shutdown safe: a skipped
// spill write leaves its page resident, a skipped prefetch is just a
// future buffer-pool miss.
//
// Observability: the `io.*` metrics count jobs per direction, gauge the
// queue overall and per class, and time each class's submit-to-claim
// wait. See DESIGN.md decision #9 and docs/METRICS.md.
//
// Ownership: the scheduler's creator owns its lifetime and must call
// Shutdown() (or let the destructor run, on a non-worker thread) when
// tearing down. Queued jobs may hold shared_ptrs to their submitters
// (e.g. spill jobs pin the SpBudgetGovernor) — submitters must therefore
// never hold the scheduler strongly themselves (the governor keeps a
// weak_ptr), or destroying the last job capture on a worker would make
// that worker destroy, and self-join, its own scheduler. QPipeEngine
// shuts its scheduler down in its destructor, after the stages have
// drained.

#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/status.h"

namespace sharing {

/// Strict priority classes, highest first. The class also names the I/O
/// direction for metrics: the two read classes count `io.reads_issued`,
/// spill writes count `io.writes_issued`.
enum class IoPriority : uint8_t {
  kScanPrefetch = 0,  // circular-scan readahead (paces every scan consumer)
  kFaultBack = 1,     // spilled-page reads a waiting reader demands
  kSpillWrite = 2,    // background spill writes (only the budget waits)
};

inline constexpr std::size_t kIoPriorityClasses = 3;

inline std::string_view IoPriorityToString(IoPriority p) {
  constexpr std::string_view kNames[kIoPriorityClasses] = {
      "scan-prefetch", "fault-back", "spill-write"};
  return kNames[static_cast<std::size_t>(p)];
}

/// Completion handle for one submitted job. Created by the scheduler;
/// shared between the submitter and the worker that runs the job.
class IoTicket {
 public:
  IoTicket() = default;
  SHARING_DISALLOW_COPY_AND_MOVE(IoTicket);

  /// Blocks until the job finishes (or is cancelled / dropped at
  /// shutdown) and returns its final status. Cancelled and shutdown-
  /// dropped jobs report Aborted.
  Status Wait();

  /// Non-blocking completion probe.
  bool done() const;

  /// Best-effort cancellation: returns true iff the job had not started,
  /// in which case it is guaranteed never to run (the worker discards it
  /// and fires the job's on_skip hook). A running or finished job
  /// returns false and is unaffected.
  bool TryCancel();

 private:
  friend class IoScheduler;

  enum class State : uint8_t { kQueued, kRunning, kDone };

  void Complete(Status status);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  State state_ = State::kQueued;
  bool cancelled_ = false;
  Status status_;
};

using IoTicketRef = std::shared_ptr<IoTicket>;

class IoScheduler {
 public:
  struct Options {
    /// I/O worker threads (at least 1).
    std::size_t threads = 2;

    /// Re-attempts granted to a job whose work body fails with a
    /// *transient* status (kIoError / kUnavailable) before the failure is
    /// surfaced on the ticket. 0 disables retry. Each re-attempt waits an
    /// exponentially growing, jittered backoff on the worker thread, so a
    /// glitching device is retried without hammering it in lockstep.
    /// Permanent failures (OutOfRange, ResourceExhausted/ENOSPC, Aborted)
    /// are never retried — retrying ENOSPC just burns the backoff budget.
    std::size_t retry_limit = 0;

    /// First backoff in microseconds; doubles per attempt (capped at
    /// 50ms) with uniform jitter in [backoff/2, backoff].
    uint32_t retry_backoff_micros = 200;

    MetricsRegistry* metrics = &MetricsRegistry::Global();
  };

  /// The work body a job runs on a worker thread; its status becomes the
  /// ticket's final status.
  using IoFn = std::function<Status()>;

  explicit IoScheduler(Options options);
  ~IoScheduler();

  SHARING_DISALLOW_COPY_AND_MOVE(IoScheduler);

  /// Enqueues `work` under `priority`; `bytes` is the job's size, an
  /// argument of its trace events. `on_skip` (optional) fires exactly
  /// when the job will never run — cancelled before start, or dropped by
  /// Shutdown — so the owner can roll back any "I/O in flight"
  /// bookkeeping. Returns nullptr after Shutdown (callers fall back to
  /// synchronous I/O or decline).
  IoTicketRef Submit(IoPriority priority, std::size_t bytes, IoFn work,
                     std::function<void()> on_skip = {});

  /// Stops accepting work, drops queued jobs (tickets complete Aborted,
  /// on_skip hooks fire), lets running jobs finish, joins workers.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  /// Jobs queued and not yet picked up, across all classes.
  std::size_t QueueDepth() const;

  /// Jobs queued in one priority class (the watchdog's per-class
  /// saturation probe — mirrors the io.queue_depth.* gauges but reads
  /// the queue directly, so it needs no registry round-trip).
  std::size_t QueueDepth(IoPriority priority) const;

 private:
  struct Job {
    IoTicketRef ticket;
    IoPriority priority = IoPriority::kSpillWrite;
    std::size_t bytes = 0;
    IoFn work;
    std::function<void()> on_skip;
    /// Submission timestamp (trace timebase micros): the worker charges
    /// claim-time minus this to the class's io.dispatch_wait histogram.
    int64_t submit_micros = 0;
  };

  void WorkerLoop();

  /// One execution of the job's work body, with the io.dispatch.* fault
  /// points (injected latency / transient failure) applied around it.
  Status RunAttempt(const Job& job);

  /// RunAttempt plus the transient-failure retry policy: up to
  /// options_.retry_limit re-attempts with exponential backoff + jitter,
  /// counting io.retries per re-attempt and io.retry_gave_up when the
  /// budget is exhausted with the failure still transient.
  Status RunWithRetry(const Job& job);

  /// Destroys the job's captures, then completes its ticket with
  /// `status` — in that order, because a waiter may tear down everything
  /// the captures reference (including this scheduler's last owner) the
  /// moment Wait() returns.
  static void FinishJob(Job job, Status status);

  Options options_;
  Counter* reads_issued_;
  Counter* writes_issued_;
  Counter* retries_;
  Counter* retry_gave_up_;
  Gauge* queue_depth_;
  /// Per-class views of the two aggregates above, indexed by IoPriority.
  std::array<Gauge*, kIoPriorityClasses> class_queue_depth_;
  /// Per-class submit→claim latency (io.dispatch_wait.{prefetch,
  /// faultback,spill}) — the queueing delay a strict-priority class
  /// actually experienced.
  std::array<Histogram*, kIoPriorityClasses> class_dispatch_wait_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::array<std::deque<Job>, kIoPriorityClasses> queues_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sharing
