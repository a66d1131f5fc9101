// FifoBuffer: the bounded page queue QPipe uses between parent and child
// packets (push-only model, as in the original engine).
//
// Exactly one producer and one consumer. The producer blocks on a full
// buffer (pipeline backpressure); the consumer blocks on an empty one.
// Either side can leave early: Close(status) seals the stream from the
// producer side; CancelReader() tells the producer its consumer is gone
// (PutBatch starts returning false).

#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>

#include "common/macros.h"
#include "exec/page_stream.h"

namespace sharing {

class FifoBuffer final : public PageSource, public PageSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 8;

  explicit FifoBuffer(std::size_t capacity_pages = kDefaultCapacity)
      : capacity_(capacity_pages == 0 ? 1 : capacity_pages) {}

  SHARING_DISALLOW_COPY_AND_MOVE(FifoBuffer);

  // PageSink ----------------------------------------------------------------

  /// Blocks for space like a bounded queue (pipeline backpressure is
  /// preserved page for page), but one lock acquisition covers as many
  /// pages as capacity allows per wakeup. Returns false when the reader
  /// is gone; a prefix may have been delivered.
  bool PutBatch(std::vector<PageRef> pages) override {
    std::size_t next = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (next < pages.size()) {
      not_full_.wait(lock, [&] {
        return queue_.size() < capacity_ || reader_cancelled_ || closed_;
      });
      if (reader_cancelled_ || closed_) return false;
      while (next < pages.size() && queue_.size() < capacity_) {
        queue_.push_back(std::move(pages[next++]));
      }
      not_empty_.notify_one();
    }
    return true;
  }

  void Close(Status final) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      closed_ = true;
      final_ = std::move(final);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  // PageSource --------------------------------------------------------------

  /// Drains up to `max_pages` buffered pages under one lock acquisition
  /// (blocking for the first); 0 = closed and drained.
  std::size_t NextBatch(std::size_t max_pages,
                        std::vector<PageRef>* out) override {
    if (max_pages == 0) return 0;
    std::size_t got = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!WaitNotEmptyLocked(lock)) return 0;
      while (got < max_pages && !queue_.empty()) {
        out->push_back(std::move(queue_.front()));
        queue_.pop_front();
        ++got;
      }
      delivered_ += got;
    }
    if (got > 0) not_full_.notify_one();
    return got;
  }

  std::size_t PagesDelivered() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return delivered_;
  }

  Status FinalStatus() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopped_.ok()) return stopped_;
    return final_;
  }

  void CancelConsumer() override { CancelReader(); }

  /// Stop probe (query deadline / watchdog cancel): a consumer blocked on
  /// an empty buffer polls it in bounded wait slices instead of sleeping
  /// until the producer puts, and on a non-OK probe abandons the stream
  /// with that status sticky in FinalStatus (the producer's next put
  /// returns false). Bind before the consumer's first read; the probe
  /// must be lock-free.
  void BindStopCheck(std::function<Status()> stop_check) override {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_check_ = std::move(stop_check);
  }

  /// Consumer-side abandonment: wakes a blocked producer and makes all
  /// subsequent puts return false. Buffered pages are dropped.
  void CancelReader() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      reader_cancelled_ = true;
      queue_.clear();
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool reader_cancelled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reader_cancelled_;
  }

  std::size_t Size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

 private:
  /// Blocks until a page is buffered or the stream closes. With a stop
  /// probe bound the wait runs in bounded slices polling it; a non-OK
  /// probe latches `stopped_`, cancels the reader side (unblocking a
  /// producer parked on a full buffer), and returns false.
  bool WaitNotEmptyLocked(std::unique_lock<std::mutex>& lock) {
    if (!stop_check_) {
      not_empty_.wait(lock, [&] { return !queue_.empty() || closed_; });
      return true;
    }
    while (queue_.empty() && !closed_) {
      const Status st = stop_check_();
      if (!st.ok()) {
        if (stopped_.ok()) stopped_ = st;
        reader_cancelled_ = true;
        queue_.clear();
        not_full_.notify_all();
        return false;
      }
      not_empty_.wait_for(lock, std::chrono::milliseconds(10));
    }
    return true;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<PageRef> queue_;
  std::size_t delivered_ = 0;
  bool closed_ = false;
  bool reader_cancelled_ = false;
  Status final_;
  /// Stop-probe verdict, sticky once non-OK (see BindStopCheck). Guarded
  /// by mutex_.
  Status stopped_;
  /// External stop probe; written before the first read, called only
  /// from the consumer's wait loop. Guarded by mutex_.
  std::function<Status()> stop_check_;
};

}  // namespace sharing
