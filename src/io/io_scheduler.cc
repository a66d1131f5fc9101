#include "io/io_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/fault.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/trace.h"

namespace sharing {

namespace {

/// Trace span / instant names per priority class (index = IoPriority).
constexpr const char* kJobSpanName[kIoPriorityClasses] = {
    "io.prefetch", "io.faultback", "io.spill"};
constexpr const char* kEnqueueName[kIoPriorityClasses] = {
    "io.enqueue.prefetch", "io.enqueue.faultback", "io.enqueue.spill"};

bool IsReadClass(IoPriority priority) {
  return priority != IoPriority::kSpillWrite;
}

/// A failure worth re-attempting: the device or service glitched but may
/// recover. ENOSPC (kResourceExhausted), OutOfRange, and Aborted are
/// permanent as far as a retry loop is concerned.
bool IsTransient(const Status& st) {
  return st.code() == StatusCode::kIoError ||
         st.code() == StatusCode::kUnavailable;
}

/// Backoff doubling cap: one glitch should cost milliseconds, not pin an
/// I/O worker for seconds.
constexpr uint64_t kMaxBackoffMicros = 50'000;

/// Per-worker jitter stream. Seeded per thread from a global counter —
/// jitter only needs to decorrelate workers, not replay.
Rng& JitterRng() {
  static std::atomic<uint64_t> seq{0};
  thread_local Rng rng(0x6a09e667f3bcc909ull + seq.fetch_add(1));
  return rng;
}

}  // namespace

// ---------------------------------------------------------------------------
// IoTicket
// ---------------------------------------------------------------------------

Status IoTicket::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return state_ == State::kDone; });
  return status_;
}

bool IoTicket::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_ == State::kDone;
}

bool IoTicket::TryCancel() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kQueued || cancelled_) return false;
  cancelled_ = true;
  return true;
}

void IoTicket::Complete(Status status) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = State::kDone;
    status_ = std::move(status);
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// IoScheduler
// ---------------------------------------------------------------------------

IoScheduler::IoScheduler(Options options)
    : options_(options),
      reads_issued_(options_.metrics->GetCounter(metrics::kIoReadsIssued)),
      writes_issued_(options_.metrics->GetCounter(metrics::kIoWritesIssued)),
      retries_(options_.metrics->GetCounter(metrics::kIoRetries)),
      retry_gave_up_(options_.metrics->GetCounter(metrics::kIoRetryGaveUp)),
      queue_depth_(options_.metrics->GetGauge(metrics::kIoQueueDepth)),
      class_queue_depth_{
          options_.metrics->GetGauge(metrics::kIoQueueDepthPrefetch),
          options_.metrics->GetGauge(metrics::kIoQueueDepthFaultback),
          options_.metrics->GetGauge(metrics::kIoQueueDepthSpill)},
      class_dispatch_wait_{
          options_.metrics->GetHistogram(metrics::kIoDispatchWaitPrefetch),
          options_.metrics->GetHistogram(metrics::kIoDispatchWaitFaultback),
          options_.metrics->GetHistogram(metrics::kIoDispatchWaitSpill)} {
  const std::size_t threads = std::max<std::size_t>(1, options_.threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoScheduler::~IoScheduler() { Shutdown(); }

IoTicketRef IoScheduler::Submit(IoPriority priority, std::size_t bytes,
                                IoFn work, std::function<void()> on_skip) {
  auto ticket = std::make_shared<IoTicket>();
  const std::size_t cls = static_cast<std::size_t>(priority);
  const int64_t submit_micros = Trace::NowMicros();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return nullptr;
    queues_[cls].push_back(Job{ticket, priority, bytes, std::move(work),
                               std::move(on_skip), submit_micros});
    // Inside the lock: a worker Subs under the same lock at pop time, so
    // the gauges can never transiently go negative or miss a peak.
    queue_depth_->Add(1);
    class_queue_depth_[static_cast<std::size_t>(priority)]->Add(1);
  }
  if (IsReadClass(priority)) {
    reads_issued_->Increment();
  } else {
    writes_issued_->Increment();
  }
  if (Trace::enabled()) {
    const TraceArg arg{"bytes", static_cast<int64_t>(bytes)};
    Trace::RecordInstant("io", kEnqueueName[cls], /*query_id=*/0,
                         /*signature=*/0, &arg, 1);
  }
  cv_.notify_one();
  return ticket;
}

std::size_t IoScheduler::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t depth = 0;
  for (const auto& queue : queues_) depth += queue.size();
  return depth;
}

std::size_t IoScheduler::QueueDepth(IoPriority priority) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queues_[static_cast<std::size_t>(priority)].size();
}

void IoScheduler::FinishJob(Job job, Status status) {
  // Destroy the job's captures (work/on_skip lambdas and everything they
  // own — page refs, SpilledPageRefs, governor handles) strictly BEFORE
  // completing the ticket: the moment Wait() returns, a waiter may tear
  // down the objects those captures point at (or drop the references
  // that keep this scheduler alive), so nothing of the job may survive
  // past the completion signal.
  IoTicketRef ticket = std::move(job.ticket);
  job.work = nullptr;
  job.on_skip = nullptr;
  ticket->Complete(std::move(status));
}

Status IoScheduler::RunAttempt(const Job& job) {
  if (FaultHit hit = SHARING_FAULT_POINT(fault_points::kIoDispatchDelay)) {
    // Payload = injected latency in micros (default 1ms): models a device
    // hiccup without failing the job.
    const int64_t micros = hit.payload > 0 ? hit.payload : 1000;
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
  if (SHARING_FAULT_POINT(fault_points::kIoDispatchFail)) {
    return Status::IoError("injected transient io dispatch failure");
  }
  return job.work ? job.work() : Status::OK();
}

Status IoScheduler::RunWithRetry(const Job& job) {
  Status st = RunAttempt(job);
  for (std::size_t attempt = 0;
       attempt < options_.retry_limit && IsTransient(st); ++attempt) {
    uint64_t backoff = options_.retry_backoff_micros;
    backoff = std::min(kMaxBackoffMicros, backoff << std::min<std::size_t>(
                                              attempt, 20));
    if (backoff > 0) {
      const int64_t jittered = JitterRng().UniformInt(
          static_cast<int64_t>(backoff / 2), static_cast<int64_t>(backoff));
      std::this_thread::sleep_for(std::chrono::microseconds(jittered));
    }
    retries_->Increment();
    st = RunAttempt(job);
  }
  if (options_.retry_limit > 0 && IsTransient(st)) {
    retry_gave_up_->Increment();
    SHARING_LOG(Warning) << "io job ("
                         << IoPriorityToString(job.priority)
                         << ") still failing after " << options_.retry_limit
                         << " retries: " << st.ToString();
  }
  return st;
}

void IoScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Strict priority: the head of the highest non-empty class.
    auto queue = std::find_if(queues_.begin(), queues_.end(),
                              [](const auto& q) { return !q.empty(); });
    if (queue == queues_.end()) {
      if (shutdown_) return;  // Shutdown drained the queues before waking us
      cv_.wait(lock);
      continue;
    }
    const std::size_t cls = static_cast<std::size_t>(queue - queues_.begin());
    Job job = std::move(queue->front());
    queue->pop_front();
    queue_depth_->Sub(1);
    class_queue_depth_[cls]->Sub(1);
    // Claim atomically against TryCancel: once state_ is kRunning a
    // concurrent TryCancel returns false, so "TryCancel returned true"
    // really does guarantee the work never runs.
    bool run;
    {
      std::lock_guard<std::mutex> tlock(job.ticket->mutex_);
      run = !job.ticket->cancelled_;
      if (run) job.ticket->state_ = IoTicket::State::kRunning;
    }
    lock.unlock();  // the job, and skip hooks, may take client locks
    if (run) {
      // Submit→claim latency, by class: the queueing delay this job
      // actually paid under strict priority.
      const int64_t wait_micros = Trace::NowMicros() - job.submit_micros;
      class_dispatch_wait_[cls]->Record(wait_micros);
      Status st;
      {
        TraceSpan span("io", kJobSpanName[cls]);
        span.AddArg("bytes", static_cast<int64_t>(job.bytes));
        span.AddArg("queue_wait_us", wait_micros);
        st = RunWithRetry(job);
      }
      FinishJob(std::move(job), std::move(st));
    } else {
      if (job.on_skip) job.on_skip();
      FinishJob(std::move(job), Status::Aborted("io job cancelled"));
    }
    lock.lock();
  }
}

void IoScheduler::Shutdown() {
  std::vector<Job> dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    for (auto& queue : queues_) {
      for (auto& job : queue) dropped.push_back(std::move(job));
      queue.clear();
    }
  }
  cv_.notify_all();
  // Outside the lock: skip hooks may take client locks (e.g. a
  // SharedPagesList unmarking an in-flight spill victim).
  for (auto& job : dropped) {
    queue_depth_->Sub(1);
    class_queue_depth_[static_cast<std::size_t>(job.priority)]->Sub(1);
    if (job.on_skip) job.on_skip();
    FinishJob(std::move(job), Status::Aborted("io scheduler shut down"));
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace sharing
