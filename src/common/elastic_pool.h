// ElasticThreadPool: a worker pool that grows on demand.
//
// QPipe packets block midway through execution (on FIFO/SPL backpressure)
// while they wait for producer packets. A fixed-size pool could then
// deadlock when plans nest operators of the same stage (e.g. left-deep join
// chains put JOIN packets below other JOIN packets). QPipe sizes per-stage
// pools generously; we make that explicit: a task never waits behind a
// *blocked* task — if no worker is idle, a new worker thread is spawned
// (up to a hard cap that exists only to catch runaway bugs). With
// initial_threads == max_threads it is a fixed set of workers, which is
// how CJOIN runs its page tasks: those never block on one another.

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/macros.h"

namespace sharing {

class ElasticThreadPool {
 public:
  explicit ElasticThreadPool(std::size_t initial_threads = 0,
                             std::size_t max_threads = 1024)
      : max_threads_(max_threads) {
    for (std::size_t i = 0; i < initial_threads; ++i) SpawnWorker();
  }

  ~ElasticThreadPool() { Shutdown(); }

  SHARING_DISALLOW_COPY_AND_MOVE(ElasticThreadPool);

  /// Schedules a task; spawns a worker if none is idle. Returns false after
  /// shutdown.
  bool Submit(std::function<void()> task) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
    // A worker that was notified but has not yet woken is still counted as
    // idle, so comparing against the queue depth (not just idle == 0) is
    // what guarantees every queued task has a worker reserved for it. An
    // undercount here re-introduces the blocked-task-behind-blocked-worker
    // deadlock this pool exists to prevent.
    if (queue_.size() > idle_workers_ && threads_.size() < max_threads_) {
      SpawnWorkerLocked();
    }
    lock.unlock();
    cv_.notify_one();
    return true;
  }

  /// Stops accepting work, drains the queue, joins all workers. Idempotent.
  void Shutdown() {
    std::vector<std::thread> to_join;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shutdown_) return;
      shutdown_ = true;
      to_join.swap(threads_);
    }
    cv_.notify_all();
    for (auto& t : to_join) {
      if (t.joinable()) t.join();
    }
  }

  std::size_t num_threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
  }

 private:
  void SpawnWorker() {
    std::lock_guard<std::mutex> lock(mutex_);
    SpawnWorkerLocked();
  }

  void SpawnWorkerLocked() {
    threads_.emplace_back([this] { WorkerLoop(); });
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      ++idle_workers_;
      cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      --idle_workers_;
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      auto task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      task();
      lock.lock();
      if (shutdown_ && queue_.empty()) return;
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::size_t idle_workers_ = 0;
  std::size_t max_threads_;
  bool shutdown_ = false;
};

}  // namespace sharing
