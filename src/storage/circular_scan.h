// Circular shared scans (paper §2 "Sharing in the I/O layer").
//
// Both QPipe and CJOIN coordinate concurrent scans of the same relation
// with circular scans: one producer reads pages round-robin and every
// attached scanner consumes the stream from its attach position until it
// has seen the whole table (one full cycle). k concurrent scans of a table
// then cost ~1x the disk reads instead of kx.
//
// A CircularScanGroup owns one lazily started producer thread per table.
// Consumers attach and receive pinned page handles through small bounded
// queues (the producer paces to the slowest consumer, as QPipe throttles
// its shared scans). A consumer may cancel early (query abort), which
// simply detaches it.
//
// With an IoScheduler configured, the producer issues readahead for the
// next `prefetch_depth` positions through the scheduler's kScanPrefetch
// class (the highest priority: the circular stream paces *every*
// attached consumer) instead of paying each miss inline, so under a
// disk-latency model the page it needs next is usually already resident
// when it gets there. Prefetch is best-effort: a failed or cancelled
// readahead is just a future buffer-pool miss.
//
// The readahead itself is `ScanReadahead`, a small helper shared by both
// circular scans of the engine: this group's producer and the CJOIN
// pipeline's fact-table driver (src/cjoin/pipeline.h). Each calls
// Ahead() with its read sequence just before it fetches a page.
//
// Both scans also share one release rule, `LoopsPastPool`. A table with
// more pages than the pool has frames would miss on every page of every
// cycle under the clock, which is LRU-like (Chou and DeWitt's "looping
// sequential" pattern). So each page such a scan has consumed is
// released as the pool's next eviction victim (MRU), and a stable part
// of the table stays resident across cycles (DESIGN.md decision #16).
// Here the last `ScanPageRef` to a page does the release: a page that
// another consumer still holds is never hinted early, and a cancelled
// consumer's queued pages go the same way. Readahead keeps the plain
// release.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
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

/// Bounded scheduler readahead for one circular scan of `table`. Owned
/// and driven by the single thread that advances the scan; not
/// thread-safe. With no scheduler or depth 0, Ahead() is a no-op and the
/// scan pays every miss inline.
class ScanReadahead {
 public:
  ScanReadahead(const Table* table, std::shared_ptr<IoScheduler> scheduler,
                std::size_t depth);
  /// Cancels readahead still queued. Jobs capture only the buffer pool
  /// and a page id, so one already running finishes harmlessly.
  ~ScanReadahead();

  SHARING_DISALLOW_COPY_AND_MOVE(ScanReadahead);

  /// Issues kScanPrefetch jobs for the positions following absolute read
  /// sequence `seq` (the caller's monotone page counter; position =
  /// seq % num_pages), skipping pages already resident and never
  /// holding more than `depth` jobs outstanding.
  void Ahead(uint64_t seq);

 private:
  const Table* table_;
  std::shared_ptr<IoScheduler> scheduler_;
  std::size_t depth_;
  // The highest sequence already prefetched, and the outstanding tickets
  // (bounded by depth_; cancelled at destruction so no queued readahead
  // outlives its scan).
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
  ~CircularScanGroup();

  SHARING_DISALLOW_COPY_AND_MOVE(CircularScanGroup);

  class Ticket;

  /// Attaches a scanner at the current cursor position; it will observe
  /// exactly one full cycle of the table.
  std::unique_ptr<Ticket> Attach();

  const Table* table() const { return table_; }

  /// Scanners currently attached (for tests/monitoring).
  std::size_t ActiveConsumers() const;

  class Ticket {
   public:
    ~Ticket();
    SHARING_DISALLOW_COPY_AND_MOVE(Ticket);

    /// Blocks until the next page is available. Returns nullptr when this
    /// scanner has seen the full table (or was cancelled / hit an error —
    /// check FinalStatus() to tell the difference).
    ScanPageRef Next();

    /// OK after a complete cycle; the I/O error if the scan was cut short
    /// by one. Meaningful once Next() has returned nullptr.
    Status FinalStatus() const;

    /// Detaches early; outstanding queued pages are released.
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
    Status error;  // non-OK when the producer hit an I/O failure

    /// Producer side: blocks until there is room or the consumer closed.
    /// Returns false if the consumer is done/closed.
    bool Deliver(ScanPageRef page);
  };

  void ProducerLoop();

  const Table* table_;
  std::size_t queue_depth_;
  MetricsRegistry* metrics_;
  Counter* pages_read_;
  Counter* shared_attach_;

  mutable std::mutex mutex_;
  std::condition_variable wake_producer_;
  std::vector<std::shared_ptr<Ticket::Consumer>> consumers_;
  bool shutdown_ = false;
  bool producer_started_ = false;
  std::thread producer_;

  // Producer thread only, no lock needed: the absolute read sequence
  // (the next position to read is read_seq_ % num_pages) and its
  // readahead (destroyed after the producer is joined).
  uint64_t read_seq_ = 0;
  ScanReadahead readahead_;
};

}  // namespace sharing
