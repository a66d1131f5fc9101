// Batch adapters between packet operators (which move one page at a
// time) and the sharing transports (which move runs of pages, paying one
// lock acquisition — or one SPL publication + wake — per run).
//
// Operators keep their page-at-a-time loops; the Stage wraps every
// packet's inputs in BatchingSource and its output in BatchingSink, and
// QPipeEngine::Submit wraps each query's root source, so every page
// crossing a stage boundary rides a run of up to kTransportBatch pages.
// The adapters are packet-local (one operator thread at a time touches
// them), so they carry no locks of their own — all concurrency lives in
// the wrapped transport.
//
// Semantics preserved, granularity coarsened:
//  * BatchingSource::Next blocks exactly when the underlying source
//    would (NextBatch waits for the first page only), and pages arrive
//    in order; the underlying reader's position advances by up to
//    `batch` at once, so consumer-lag signals and reclamation are
//    batch-granular.
//  * BatchingSink::Put buffers up to `batch` pages before one PutBatch;
//    Close flushes the remainder first. A producer therefore learns that
//    all consumers are gone up to `batch-1` pages late — the same
//    bounded overproduction a FIFO's capacity already allows.

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "exec/page_stream.h"

namespace sharing {

/// Pages per transport call at every stage boundary.
inline constexpr std::size_t kTransportBatch = 8;

class BatchingSource final : public PageSource {
 public:
  explicit BatchingSource(PageSourceRef inner,
                          std::size_t batch = kTransportBatch)
      : inner_(std::move(inner)), batch_(batch == 0 ? 1 : batch) {
    buffer_.reserve(batch_);
  }

  SHARING_DISALLOW_COPY_AND_MOVE(BatchingSource);

  PageRef Next() override {
    if (next_ >= buffer_.size()) {
      buffer_.clear();
      next_ = 0;
      if (inner_->NextBatch(batch_, &buffer_) == 0) return nullptr;
    }
    ++delivered_;
    return std::move(buffer_[next_++]);
  }

  std::size_t NextBatch(std::size_t max_pages,
                        std::vector<PageRef>* out) override {
    // Serve buffered pages first (order!), then delegate.
    std::size_t got = 0;
    while (got < max_pages && next_ < buffer_.size()) {
      out->push_back(std::move(buffer_[next_++]));
      ++got;
    }
    if (got == 0) got = inner_->NextBatch(max_pages, out);
    delivered_ += got;
    return got;
  }

  Status FinalStatus() const override { return inner_->FinalStatus(); }

  void CancelConsumer() override { inner_->CancelConsumer(); }

  /// Pages handed out by THIS adapter — the operator's true position,
  /// which trails the wrapped reader's by the buffered remainder.
  std::size_t PagesDelivered() const override { return delivered_; }

  void BindStopCheck(std::function<Status()> stop_check) override {
    inner_->BindStopCheck(std::move(stop_check));
  }

 private:
  PageSourceRef inner_;
  const std::size_t batch_;
  std::vector<PageRef> buffer_;
  std::size_t next_ = 0;
  std::size_t delivered_ = 0;
};

class BatchingSink final : public PageSink {
 public:
  explicit BatchingSink(PageSinkRef inner,
                        std::size_t batch = kTransportBatch)
      : inner_(std::move(inner)), batch_(batch == 0 ? 1 : batch) {
    buffer_.reserve(batch_);
  }

  SHARING_DISALLOW_COPY_AND_MOVE(BatchingSink);

  bool Put(PageRef page) override {
    buffer_.push_back(std::move(page));
    if (buffer_.size() >= batch_) return Flush();
    return !dead_;
  }

  bool PutBatch(std::vector<PageRef> pages) override {
    for (PageRef& page : pages) {
      if (!Put(std::move(page)) && dead_) return false;
    }
    return !dead_;
  }

  void Close(Status final) override {
    Flush();  // buffered pages are delivered before end-of-stream
    inner_->Close(std::move(final));
  }

 private:
  bool Flush() {
    if (buffer_.empty()) return !dead_;
    std::vector<PageRef> batch;
    batch.reserve(batch_);
    batch.swap(buffer_);
    if (!inner_->PutBatch(std::move(batch))) dead_ = true;
    return !dead_;
  }

  PageSinkRef inner_;
  const std::size_t batch_;
  std::vector<PageRef> buffer_;
  bool dead_ = false;
};

}  // namespace sharing
