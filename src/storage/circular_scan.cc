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

StatusOr<ScanPageRef> FetchScanPage(const Table* table, uint64_t position) {
  auto guard_or = table->buffer_pool()->FetchPage(table->page_id(position));
  if (!guard_or.ok()) {
    SHARING_LOG(Error) << "circular scan of " << table->name()
                       << " failed: " << guard_or.status().ToString();
    return guard_or.status();
  }
  auto page = std::make_shared<ScanPage>();
  page->guard = std::move(guard_or).value();
  page->position = position;
  page->loops_past_pool = LoopsPastPool(table);
  return page;
}

// ---------------------------------------------------------------------------
// Consumer
// ---------------------------------------------------------------------------

void CircularScanGroup::Ticket::Consumer::Deliver(ScanPageRef page) {
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return queue.size() < depth || closed; });
  if (closed) return;
  queue.push_back(std::move(page));
  --remaining;
  lock.unlock();
  cv.notify_all();
}

// ---------------------------------------------------------------------------
// Ticket
// ---------------------------------------------------------------------------

CircularScanGroup::Ticket::~Ticket() { Cancel(); }

ScanPageRef CircularScanGroup::Ticket::Next() {
  Consumer& c = *consumer_;
  std::unique_lock<std::mutex> lock(c.mutex);
  for (;;) {
    if (!c.queue.empty()) {
      ScanPageRef page = std::move(c.queue.front());
      c.queue.pop_front();
      lock.unlock();
      c.cv.notify_all();  // a claimer may be waiting for room
      return page;
    }
    if (c.closed || c.remaining == 0) return nullptr;
    c.kicked = false;
    lock.unlock();
    if (!group_->claiming_.exchange(true)) {
      if (ScanPageRef page = group_->ClaimFor(consumer_)) return page;
      lock.lock();
      continue;
    }
    // Another thread is claiming: it queues this ticket's page, or kicks
    // the tickets waiting for it when the claim ends. Registering before
    // the re-check means a claim that ends in between still kicks us.
    {
      std::lock_guard<std::mutex> waiters_lock(group_->waiters_mutex_);
      group_->waiters_.push_back(consumer_);
    }
    lock.lock();
    if (!group_->claiming_.load()) continue;
    c.cv.wait(lock, [&] {
      return !c.queue.empty() || c.closed || c.remaining == 0 || c.kicked;
    });
  }
}

Status CircularScanGroup::Ticket::FinalStatus() const {
  std::lock_guard<std::mutex> lock(consumer_->mutex);
  return consumer_->error;
}

void CircularScanGroup::Ticket::Cancel() {
  {
    std::lock_guard<std::mutex> lock(consumer_->mutex);
    if (consumer_->closed || consumer_->remaining == 0) {
      consumer_->queue.clear();
      return;
    }
  }
  group_->Close(consumer_, Status::OK());
}

// ---------------------------------------------------------------------------
// CircularScanGroup
// ---------------------------------------------------------------------------

CircularScanGroup::CircularScanGroup(const Table* table,
                                     std::size_t queue_depth,
                                     MetricsRegistry* metrics,
                                     std::shared_ptr<IoScheduler> scheduler,
                                     std::size_t prefetch_depth)
    : queue_depth_(std::max<std::size_t>(1, queue_depth)),
      cursor_(table, metrics, std::move(scheduler), prefetch_depth) {}

std::unique_ptr<CircularScanGroup::Ticket> CircularScanGroup::Attach() {
  // On an empty table the ticket is born complete (remaining == 0).
  auto consumer = std::make_shared<Ticket::Consumer>(
      queue_depth_, table()->num_pages());
  cursor_.Join(consumer);
  return std::unique_ptr<Ticket>(new Ticket(this, std::move(consumer)));
}

std::size_t CircularScanGroup::ActiveConsumers() const {
  return cursor_.riders();
}

void CircularScanGroup::Close(const ConsumerRef& consumer,
                              const Status& error) {
  {
    std::lock_guard<std::mutex> lock(consumer->mutex);
    if (error.ok()) consumer->queue.clear();  // cancelled: release pins
    if (consumer->closed) return;
    consumer->closed = true;
    consumer->error = error;
  }
  consumer->cv.notify_all();
  cursor_.Leave(consumer);
}

ScanPageRef CircularScanGroup::ClaimFor(const ConsumerRef& self) {
  ScanPageRef mine;
  if (auto seq = cursor_.Claim(&claim_riders_)) {
    auto page_or = cursor_.Fetch(*seq);
    for (const ConsumerRef& c : claim_riders_) {
      if (!page_or.ok()) {
        // Close every rider owed the page with the read's status, so its
        // scan surfaces an IoError instead of a short table.
        Close(c, page_or.status());
      } else if (c != self) {
        c->Deliver(page_or.value());
      } else {
        std::lock_guard<std::mutex> lock(c->mutex);
        if (!c->closed) {
          --c->remaining;
          mine = page_or.value();
        }
      }
    }
    claim_riders_.clear();
  }
  // Kick the tickets that waited for this claim to end.
  claiming_.store(false);
  std::vector<ConsumerRef> waiters;
  {
    std::lock_guard<std::mutex> lock(waiters_mutex_);
    waiters.swap(waiters_);
  }
  for (const ConsumerRef& c : waiters) {
    {
      std::lock_guard<std::mutex> lock(c->mutex);
      c->kicked = true;
    }
    c->cv.notify_all();
  }
  return mine;
}

}  // namespace sharing
