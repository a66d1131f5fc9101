// Circular shared scans (paper §2 "Sharing in the I/O layer").
//
// QPipe and CJOIN both coordinate concurrent scans of a relation with a
// circular scan: pages are read round-robin, and every attached scanner
// consumes the stream from its attach position until it has seen the
// whole table once. k concurrent scans of a table then cost ~1x the disk
// reads instead of kx.
//
// Both engines write that cycle once, as a `ScanCursor` with no thread of
// its own (DESIGN.md decision #22). Under one mutex it holds the read
// sequence (position = seq % num_pages), the riders and the readahead. A
// rider is a consumer owed exactly num_pages positions, from the first
// claim after it joins. Whoever needs the next position calls Claim(),
// which also issues readahead of the next `prefetch_depth` positions at
// the scheduler's kScanPrefetch priority, then Fetch()es the page outside
// the mutex and hands it to the riders the claim returned. A rider that
// leaves early is removed at once.
//  * QPipe (`CircularScanGroup`): a ticket's Next() pops its bounded
//    queue. When the queue is empty and no claim is in progress, the
//    calling thread claims the next position itself, queues the page for
//    every other rider and returns it; otherwise it waits until a page
//    arrives or the claimer kicks it. The claimer waits on a rider whose
//    queue is full, so the slowest consumer paces the rest and the I/O
//    stays shared. A lone ticket is a plain scan on its caller's thread.
//  * CJOIN (src/cjoin/pipeline.h): the riders are the admitted queries,
//    and the pipeline's workers claim positions.
//
// Both scans share one release rule, `LoopsPastPool`. A table with more
// pages than the pool has frames would miss on every page of every cycle
// under the LRU-like clock (Chou and DeWitt's "looping sequential"
// pattern), so the last `ScanPageRef` to a consumed page releases it as
// the pool's next victim (MRU), and a stable part of the table stays
// resident across cycles (DESIGN.md decision #16). A page another
// consumer still holds is never hinted early. Readahead keeps the plain
// release, and a failed or cancelled readahead is just a later miss.

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/status.h"
#include "io/io_scheduler.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace sharing {

/// The looping-scan release rule, shared by both circular scans: true
/// when `table` has more pages than its buffer pool has frames, so a
/// circular scan of it should release each page it has consumed with
/// PageGuard::ReleaseAsNextVictim() instead of Release().
bool LoopsPastPool(const Table* table);

/// A pinned table page as delivered to scan consumers. `position` is the
/// logical page index within the table (used by tests; consumers normally
/// don't care about order). Shared by every consumer it was delivered
/// to; the last reference unpins it.
struct ScanPage {
  ScanPage() = default;
  /// Releases the pin, as the pool's next victim when the table loops
  /// past the pool.
  ~ScanPage();
  SHARING_DISALLOW_COPY_AND_MOVE(ScanPage);

  PageGuard guard;
  uint64_t position = 0;
  bool loops_past_pool = false;  // LoopsPastPool(table)

  const uint8_t* data() const { return guard.data(); }
};

using ScanPageRef = std::shared_ptr<ScanPage>;

/// Fetches page `position` of `table` as a ScanPage carrying the table's
/// LoopsPastPool verdict; logs and returns the error of a failed read.
StatusOr<ScanPageRef> FetchScanPage(const Table* table, uint64_t position);

/// One circular cycle over a table and the riders on it. `Rider` is a
/// copyable handle (a shared_ptr) compared by ==. Thread-safe.
template <typename Rider>
class ScanCursor {
 public:
  /// `scheduler` (optional): readahead of the next `prefetch_depth`
  /// positions; null or depth 0 = none, and claimers pay every miss.
  ScanCursor(const Table* table, MetricsRegistry* metrics,
             std::shared_ptr<IoScheduler> scheduler,
             std::size_t prefetch_depth)
      : table_(table),
        pages_read_(metrics->GetCounter(metrics::kScanPagesRead)),
        shared_attach_(metrics->GetCounter(metrics::kScanSharedAttach)),
        scheduler_(std::move(scheduler)),
        prefetch_depth_(prefetch_depth) {}
  /// Cancels readahead still queued. Jobs capture only the buffer pool
  /// and a page id, so one already running finishes harmlessly.
  ~ScanCursor() {
    for (const auto& ticket : tickets_) ticket->TryCancel();
  }
  SHARING_DISALLOW_COPY_AND_MOVE(ScanCursor);

  /// Adds `rider`, owed the next num_pages positions (on an empty table
  /// it is never added). Counts scan.shared_attach when others ride.
  void Join(Rider rider) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!riders_.empty()) shared_attach_->Increment();
    if (table_->num_pages() > 0) {
      riders_.push_back({std::move(rider), table_->num_pages()});
    }
  }

  /// Claims the next position, issues its readahead and counts
  /// scan.pages_read. Returns its read sequence and fills `riders` (a
  /// buffer the caller reuses) with the riders owed it; nullopt when
  /// nobody rides. A rider owed nothing more afterwards is dropped.
  std::optional<uint64_t> Claim(std::vector<Rider>* riders) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (riders_.empty()) return std::nullopt;
    const uint64_t seq = seq_++;
    pages_read_->Increment();
    riders->clear();
    uint64_t still_owed = 0;  // the most any rider is owed after this
    for (auto& entry : riders_) {
      riders->push_back(entry.rider);
      still_owed = std::max(still_owed, --entry.owed);
    }
    std::erase_if(riders_, [](const Entry& e) { return e.owed == 0; });
    ReadAhead(seq, still_owed);
    return seq;
  }

  /// Removes `rider` now; returns the positions it was still owed (0 if
  /// it already finished or left).
  uint64_t Leave(const Rider& rider) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(riders_.begin(), riders_.end(),
                           [&](const Entry& e) { return e.rider == rider; });
    if (it == riders_.end()) return 0;
    const uint64_t owed = it->owed;
    riders_.erase(it);
    return owed;
  }

  /// Calls `fn(rider)` for every rider, under the cursor mutex (which is
  /// taken before any lock `fn` takes).
  template <typename Fn>
  void ForEachRider(Fn fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : riders_) fn(entry.rider);
  }

  std::size_t riders() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return riders_.size();
  }

  /// Reads the page at sequence `seq`; call it without holding the lock.
  StatusOr<ScanPageRef> Fetch(uint64_t seq) const {
    return FetchScanPage(table_, seq % table_->num_pages());
  }

  const Table* table() const { return table_; }

 private:
  /// Queues kScanPrefetch jobs for the positions after `seq`, up to the
  /// `owed` positions some rider will still claim (a read past every
  /// rider's cycle would only evict a page someone needs), skipping
  /// resident pages and never holding more than prefetch_depth_ jobs
  /// outstanding: readahead that cannot keep up arrives too late to help,
  /// so skipped positions are simply future misses.
  void ReadAhead(uint64_t seq, uint64_t owed) {
    if (scheduler_ == nullptr || prefetch_depth_ == 0) return;
    while (!tickets_.empty() && tickets_.front()->done()) {
      tickets_.pop_front();
    }
    const uint64_t last = seq + std::min<uint64_t>(prefetch_depth_, owed);
    for (uint64_t s = std::max(seq, prefetched_until_) + 1;
         s <= last && tickets_.size() < prefetch_depth_;
         prefetched_until_ = s++) {
      BufferPool* pool = table_->buffer_pool();
      const PageId pid = table_->page_id(s % table_->num_pages());
      // A resident page would be a free hit: don't spend scheduler budget
      // (or inflate io.reads_issued) on it. The job captures only the
      // database-owned pool and the page id, so it stays safe if the scan
      // dies before it runs.
      if (pool->IsResident(pid)) continue;
      IoTicketRef ticket = scheduler_->Submit(
          IoPriority::kScanPrefetch, kPageBytes, [pool, pid] {
            auto guard_or = pool->FetchPage(pid);
            return guard_or.ok() ? Status::OK() : guard_or.status();
          });
      if (ticket == nullptr) return;  // scheduler shut down
      tickets_.push_back(std::move(ticket));
    }
  }

  struct Entry {
    Rider rider;
    uint64_t owed;  // positions still to claim for this rider
  };

  const Table* table_;
  Counter* pages_read_;
  Counter* shared_attach_;
  std::shared_ptr<IoScheduler> scheduler_;
  std::size_t prefetch_depth_;

  mutable std::mutex mutex_;
  std::vector<Entry> riders_;
  uint64_t seq_ = 0;
  // The highest sequence already prefetched, and the outstanding jobs.
  uint64_t prefetched_until_ = 0;
  std::deque<IoTicketRef> tickets_;
};

class CircularScanGroup {
 public:
  /// `queue_depth`: per-consumer buffered pages (backpressure window).
  /// `scheduler` (optional): async readahead of the next `prefetch_depth`
  /// positions at kScanPrefetch priority; null = no prefetch.
  explicit CircularScanGroup(
      const Table* table, std::size_t queue_depth = 4,
      MetricsRegistry* metrics = &MetricsRegistry::Global(),
      std::shared_ptr<IoScheduler> scheduler = nullptr,
      std::size_t prefetch_depth = 4);

  SHARING_DISALLOW_COPY_AND_MOVE(CircularScanGroup);

  class Ticket;

  /// Attaches a scanner at the current cursor position; it will observe
  /// exactly one full cycle of the table. A ticket still mid-cycle must
  /// not outlive the group; one that finished or was closed may.
  std::unique_ptr<Ticket> Attach();

  const Table* table() const { return cursor_.table(); }

  /// Scanners currently attached (for tests/monitoring).
  std::size_t ActiveConsumers() const;

  class Ticket {
   public:
    ~Ticket();
    SHARING_DISALLOW_COPY_AND_MOVE(Ticket);

    /// Blocks until the next page is available, claiming and reading it
    /// on this thread when nobody else is. Returns nullptr when this
    /// scanner has seen the full table (or was cancelled / hit an error —
    /// check FinalStatus() to tell the difference).
    ScanPageRef Next();

    /// OK after a complete cycle; the I/O error if the scan was cut short
    /// by one. Meaningful once Next() has returned nullptr.
    Status FinalStatus() const;

    /// Detaches early; outstanding queued pages are released. A ticket
    /// that finished its cycle or was closed only drops its queue: it is
    /// no longer on the cursor, so the group is not touched.
    void Cancel();

   private:
    friend class CircularScanGroup;
    struct Consumer;
    Ticket(CircularScanGroup* group, std::shared_ptr<Consumer> consumer)
        : group_(group), consumer_(std::move(consumer)) {}

    CircularScanGroup* group_;
    std::shared_ptr<Consumer> consumer_;
  };

 private:
  struct Ticket::Consumer {
    explicit Consumer(std::size_t depth, uint64_t remaining)
        : depth(depth), remaining(remaining) {}

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<ScanPageRef> queue;
    std::size_t depth;
    uint64_t remaining;  // pages left to deliver
    bool closed = false;
    bool kicked = false;  // a claim it waited for has ended
    Status error;         // non-OK when a claim's read failed

    /// Claimer side: blocks until there is room or the consumer closed.
    void Deliver(ScanPageRef page);
  };
  using ConsumerRef = std::shared_ptr<Ticket::Consumer>;

  /// Claims, reads and fans out the next position for `self`, whose queue
  /// is empty; returns self's copy of the page, if it was owed one. The
  /// caller won `claiming_`, and this releases it.
  ScanPageRef ClaimFor(const ConsumerRef& self);

  /// Closes `consumer` with `error` (OK = cancelled, which also drops its
  /// queued pages) and takes it off the cursor.
  void Close(const ConsumerRef& consumer, const Status& error);

  std::size_t queue_depth_;
  ScanCursor<ConsumerRef> cursor_;
  /// True while one ticket's thread runs ClaimFor, which alone uses
  /// claim_riders_.
  std::atomic<bool> claiming_{false};
  std::vector<ConsumerRef> claim_riders_;
  /// Tickets waiting for the current claim to end; its claimer kicks them.
  std::mutex waiters_mutex_;
  std::vector<ConsumerRef> waiters_;
};

}  // namespace sharing
