#include "storage/circular_scan.h"

#include <algorithm>

#include "common/logging.h"

namespace sharing {

bool LoopsPastPool(const Table* table) {
  return table->num_pages() > table->buffer_pool()->num_frames();
}

ScanPage::~ScanPage() {
  if (loops_past_pool) guard.ReleaseAsNextVictim();
}

// ---------------------------------------------------------------------------
// ScanReadahead
// ---------------------------------------------------------------------------

ScanReadahead::ScanReadahead(const Table* table,
                             std::shared_ptr<IoScheduler> scheduler,
                             std::size_t depth)
    : table_(table), scheduler_(std::move(scheduler)), depth_(depth) {}

ScanReadahead::~ScanReadahead() {
  for (const auto& ticket : tickets_) ticket->TryCancel();
}

void ScanReadahead::Ahead(uint64_t seq) {
  if (scheduler_ == nullptr || depth_ == 0) return;
  BufferPool* pool = table_->buffer_pool();
  const uint64_t n_pages = table_->num_pages();
  // Drop completed tickets so the deque tracks only live readahead.
  while (!tickets_.empty() && tickets_.front()->done()) {
    tickets_.pop_front();
  }
  const uint64_t target = seq + depth_;
  for (uint64_t s = std::max(seq + 1, prefetched_until_ + 1); s <= target;
       ++s) {
    // Readahead that cannot keep up is readahead that arrives too late
    // to help: once `depth_` jobs are outstanding, stop issuing instead
    // of backlogging the scheduler queue without bound. Skipped
    // positions are simply future cache misses; the scan moves on and
    // later calls target only what is still ahead of it.
    if (tickets_.size() >= depth_) break;
    const PageId pid = table_->page_id(s % n_pages);
    // A page that is already resident would be a free hit — don't spend
    // scheduler budget (or inflate io.reads_issued) re-fetching it. The
    // probe is advisory; a page evicted right after just misses later.
    if (pool->IsResident(pid)) {
      prefetched_until_ = std::max(prefetched_until_, s);
      continue;
    }
    // The job captures only the database-owned pool and the page id, so
    // it stays safe even if the scan dies before it runs. Fetch + drop
    // leaves the page resident for the scan's upcoming FetchPage.
    IoTicketRef ticket = scheduler_->Submit(
        IoPriority::kScanPrefetch, kPageBytes, [pool, pid] {
          auto guard_or = pool->FetchPage(pid);
          return guard_or.ok() ? Status::OK() : guard_or.status();
        });
    if (ticket == nullptr) return;  // scheduler shut down
    tickets_.push_back(std::move(ticket));
    prefetched_until_ = std::max(prefetched_until_, s);
  }
}

// ---------------------------------------------------------------------------
// Consumer
// ---------------------------------------------------------------------------

bool CircularScanGroup::Ticket::Consumer::Deliver(ScanPageRef page) {
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return queue.size() < depth || closed; });
  if (closed || remaining == 0) return false;
  queue.push_back(std::move(page));
  --remaining;
  bool done = remaining == 0;
  lock.unlock();
  cv.notify_all();
  return !done;
}

// ---------------------------------------------------------------------------
// Ticket
// ---------------------------------------------------------------------------

CircularScanGroup::Ticket::~Ticket() { Cancel(); }

ScanPageRef CircularScanGroup::Ticket::Next() {
  std::unique_lock<std::mutex> lock(consumer_->mutex);
  consumer_->cv.wait(lock, [&] {
    return !consumer_->queue.empty() || consumer_->closed ||
           (consumer_->remaining == 0 && consumer_->queue.empty());
  });
  if (consumer_->queue.empty()) return nullptr;
  ScanPageRef page = std::move(consumer_->queue.front());
  consumer_->queue.pop_front();
  lock.unlock();
  consumer_->cv.notify_all();
  return page;
}

Status CircularScanGroup::Ticket::FinalStatus() const {
  std::lock_guard<std::mutex> lock(consumer_->mutex);
  return consumer_->error;
}

void CircularScanGroup::Ticket::Cancel() {
  {
    std::lock_guard<std::mutex> lock(consumer_->mutex);
    if (consumer_->closed) return;
    consumer_->closed = true;
    consumer_->queue.clear();  // release pins
  }
  consumer_->cv.notify_all();
}

// ---------------------------------------------------------------------------
// CircularScanGroup
// ---------------------------------------------------------------------------

CircularScanGroup::CircularScanGroup(const Table* table,
                                     std::size_t queue_depth,
                                     MetricsRegistry* metrics,
                                     std::shared_ptr<IoScheduler> scheduler,
                                     std::size_t prefetch_depth)
    : table_(table),
      queue_depth_(std::max<std::size_t>(1, queue_depth)),
      metrics_(metrics),
      pages_read_(metrics->GetCounter(metrics::kScanPagesRead)),
      shared_attach_(metrics->GetCounter(metrics::kScanSharedAttach)),
      readahead_(table, std::move(scheduler), prefetch_depth) {}

CircularScanGroup::~CircularScanGroup() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    for (auto& c : consumers_) {
      std::lock_guard<std::mutex> clock(c->mutex);
      c->closed = true;
    }
    for (auto& c : consumers_) c->cv.notify_all();
  }
  wake_producer_.notify_all();
  // After the join nobody issues new readahead; readahead_'s destructor
  // then cancels whatever is still queued.
  if (producer_.joinable()) producer_.join();
}

std::unique_ptr<CircularScanGroup::Ticket> CircularScanGroup::Attach() {
  auto consumer = std::make_shared<Ticket::Consumer>(
      queue_depth_, table_->num_pages());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SHARING_CHECK(!shutdown_);
    if (!consumers_.empty()) shared_attach_->Increment();
    if (table_->num_pages() > 0) {
      consumers_.push_back(consumer);
      if (!producer_started_) {
        producer_started_ = true;
        producer_ = std::thread([this] { ProducerLoop(); });
      }
    } else {
      // Empty table: the ticket is born complete (remaining == 0).
    }
  }
  wake_producer_.notify_all();
  return std::unique_ptr<Ticket>(new Ticket(this, std::move(consumer)));
}

std::size_t CircularScanGroup::ActiveConsumers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return consumers_.size();
}

void CircularScanGroup::ProducerLoop() {
  BufferPool* pool = table_->buffer_pool();
  const std::size_t n_pages = table_->num_pages();
  const bool loops_past_pool = LoopsPastPool(table_);
  for (;;) {
    // Snapshot the consumers that still want pages; prune finished ones.
    std::vector<std::shared_ptr<Ticket::Consumer>> active;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      consumers_.erase(
          std::remove_if(consumers_.begin(), consumers_.end(),
                         [](const std::shared_ptr<Ticket::Consumer>& c) {
                           std::lock_guard<std::mutex> clock(c->mutex);
                           return c->closed || c->remaining == 0;
                         }),
          consumers_.end());
      wake_producer_.wait(lock,
                          [&] { return shutdown_ || !consumers_.empty(); });
      if (shutdown_) return;
      active = consumers_;
    }

    const uint64_t seq = read_seq_++;
    const uint64_t position = seq % n_pages;
    readahead_.Ahead(seq);
    auto guard_or = pool->FetchPage(table_->page_id(position));
    if (!guard_or.ok()) {
      SHARING_LOG(Error) << "circular scan fetch failed: "
                         << guard_or.status().ToString();
      // Close all consumers with the error recorded, so their scans
      // surface an IoError instead of silently reporting a short table.
      for (auto& c : active) {
        {
          std::lock_guard<std::mutex> clock(c->mutex);
          c->closed = true;
          if (c->error.ok()) c->error = guard_or.status();
        }
        c->cv.notify_all();
      }
      continue;
    }
    auto page = std::make_shared<ScanPage>();
    page->guard = std::move(guard_or).value();
    page->position = position;
    page->loops_past_pool = loops_past_pool;
    pages_read_->Increment();

    for (auto& c : active) {
      c->Deliver(page);
    }
  }
}

}  // namespace sharing
