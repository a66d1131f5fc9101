// SpBudgetGovernor: the engine-wide memory budget for pull-based SP.
//
// The SPL widens the sharing window by retaining produced pages for late
// and slow consumers — a memory-for-sharing trade that PR 1 bounded only
// by reclaiming behind the slowest reader. One stalled satellite therefore
// still pinned the host's entire result in RAM. The governor closes that
// hole: it accounts every in-memory SPL page across *all* sharing
// channels of an engine against a configurable page budget, and when the
// total exceeds the budget it directs channels to migrate
// already-consumed but not-yet-drained pages to a temp file (spill tier).
// Spilled pages fault back transparently on SplReader::NextBatch() with
// bit-exact contents, and are deleted — never re-read — once every reader
// has passed them (the sealed-window reclamation contract).
//
// The governor owns the spill backing store: a lazily created DiskManager
// over a unique temp file (removed on destruction). A RowPage spills as a
// chain of fixed-size disk pages carrying a page_layout header (row
// width/count/capacity) plus the raw row bytes, so the faulted-back page
// is byte-identical to the original. Freed chains return to the
// DiskManager free list, so the spill file is bounded by the live spilled
// working set, not cumulative spill traffic.
//
// Observability: `sp.pages_spilled` (RowPages ever spilled),
// `sp.spill_bytes` (bytes currently on the spill store; returns to zero
// after readers drain) and `sp.unspill_reads` (fault-back reads).

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/status_or.h"
#include "io/io_scheduler.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace sharing {

class SharedPagesList;
class SpBudgetGovernor;

/// A RowPage migrated to the spill store: the disk-page chain holding its
/// serialized bytes plus the metadata needed to reconstruct it exactly.
/// Destruction frees the chain without reading it — dropping the last
/// reference (reclamation, channel teardown) is how spilled pages die.
class SpilledPage {
 public:
  SpilledPage(std::shared_ptr<SpBudgetGovernor> governor,
              std::vector<PageId> chain, uint32_t row_width,
              uint32_t row_count, uint32_t capacity, std::size_t bytes)
      : governor_(std::move(governor)),
        chain_(std::move(chain)),
        row_width_(row_width),
        row_count_(row_count),
        capacity_(capacity),
        bytes_(bytes) {}
  ~SpilledPage();

  SHARING_DISALLOW_COPY_AND_MOVE(SpilledPage);

  const std::vector<PageId>& chain() const { return chain_; }
  uint32_t row_width() const { return row_width_; }
  uint32_t row_count() const { return row_count_; }
  uint32_t capacity() const { return capacity_; }
  /// Serialized size (header + row bytes); the unit of sp.spill_bytes.
  std::size_t bytes() const { return bytes_; }

 private:
  std::shared_ptr<SpBudgetGovernor> governor_;
  std::vector<PageId> chain_;
  uint32_t row_width_;
  uint32_t row_count_;
  uint32_t capacity_;
  std::size_t bytes_;
};

using SpilledPageRef = std::shared_ptr<const SpilledPage>;

class SpBudgetGovernor
    : public std::enable_shared_from_this<SpBudgetGovernor> {
 public:
  struct Options {
    /// In-memory SP pages allowed across every channel sharing this
    /// governor; 0 disables budgeting (channels never spill).
    std::size_t budget_pages = 0;

    /// Path of the spill backing file; empty picks a unique file in the
    /// system temp directory. Created lazily on first spill (exclusively
    /// — a path whose file already exists is refused, never shared or
    /// truncated), removed when the governor dies.
    std::string spill_path;

    /// Latency model charged on fault-back reads (defaults to none: the
    /// spill store is a local temp file, not the modeled 15kRPM array).
    uint32_t read_latency_micros = 0;
    uint32_t read_bandwidth_mib = 0;

    /// Latency model charged on spill writes. With a scheduler configured
    /// it is charged on the I/O worker, never the producer thread.
    uint32_t write_latency_micros = 0;

    /// Asynchronous I/O service for spill writes (kSpillWrite class) and
    /// fault-back reads (kFaultBack class). Null: both run synchronously
    /// on the calling thread (the pre-scheduler behavior). The governor
    /// keeps only a WEAK reference: the scheduler's creator owns its
    /// lifetime (and must Shutdown it), and queued spill jobs — which
    /// pin the governor — must never be able to resurrect or destroy
    /// the scheduler from one of its own workers.
    std::shared_ptr<IoScheduler> scheduler;

    /// Max spill writes in flight at once (scheduler path only). Victims
    /// stay resident (and readable) until their write is durable, so at
    /// most `spill_write_window` pages sit in the "spilling but not yet
    /// released" state. The window does not bound the memory tier:
    /// while it is full, Rebalance sheds nothing and producers keep
    /// appending, so resident pages can pass budget + window until the
    /// in-flight writes install.
    std::size_t spill_write_window = 16;

    MetricsRegistry* metrics = &MetricsRegistry::Global();
  };

  static std::shared_ptr<SpBudgetGovernor> Create(Options options) {
    return std::shared_ptr<SpBudgetGovernor>(
        new SpBudgetGovernor(std::move(options)));
  }

  SHARING_DISALLOW_COPY_AND_MOVE(SpBudgetGovernor);

  bool enabled() const { return options_.budget_pages > 0; }
  std::size_t budget_pages() const { return options_.budget_pages; }

  /// Budgeting is configured AND the spill store works (creation and
  /// writes have not latched it off) — i.e. the spill tier can actually
  /// absorb overflow. The cost model's pull+spill preference checks this,
  /// not enabled(): steering a high-retention session into pull on the
  /// promise of a spill tier that cannot spill would recreate the
  /// unbounded-RAM regime the governor exists to prevent.
  bool usable() const {
    return enabled() && !store_failed_.load(std::memory_order_relaxed);
  }

  /// Accounting hooks called by SharedPagesList as pages become (or stop
  /// being) memory-resident. Spilling a page releases it; faulting one
  /// back hands the reader a transient private copy and retains nothing.
  void OnPagesRetained(std::size_t n) {
    in_memory_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  }
  void OnPagesReleased(std::size_t n) {
    in_memory_.fetch_sub(static_cast<int64_t>(n), std::memory_order_relaxed);
  }

  /// In-memory SP pages currently beyond the budget — how many pages the
  /// calling channel should shed. Computed on the *effective* retention
  /// (EffectiveInMemoryPages): a victim whose async spill write is
  /// already in flight leaves memory the moment it is durable, so
  /// counting it again would double-shed. Zero when budgeting is
  /// disabled.
  std::size_t ExcessPages() const {
    if (!enabled()) return 0;
    int64_t now =
        in_memory_.load(std::memory_order_relaxed) -
        static_cast<int64_t>(spills_in_flight_.load(std::memory_order_relaxed));
    int64_t budget = static_cast<int64_t>(options_.budget_pages);
    return now > budget ? static_cast<std::size_t>(now - budget) : 0;
  }

  std::size_t InMemoryPages() const {
    int64_t now = in_memory_.load(std::memory_order_relaxed);
    return now > 0 ? static_cast<std::size_t>(now) : 0;
  }

  /// Retention net of in-flight async spill writes — the pages that will
  /// still be resident once queued spill I/O lands (the view ExcessPages
  /// sheds against, so a burst of in-flight writes does not double-count
  /// against the budget).
  std::size_t EffectiveInMemoryPages() const {
    int64_t now =
        in_memory_.load(std::memory_order_relaxed) -
        static_cast<int64_t>(spills_in_flight_.load(std::memory_order_relaxed));
    return now > 0 ? static_cast<std::size_t>(now) : 0;
  }

  /// Async spill writes currently queued or running.
  std::size_t SpillsInFlight() const {
    return spills_in_flight_.load(std::memory_order_relaxed);
  }

  /// The in-flight window is exhausted: further SpillAsync calls would
  /// decline, so Rebalance can stop scanning for victims.
  bool SpillWindowFull() const {
    return !scheduler_.expired() &&
           SpillsInFlight() >= options_.spill_write_window;
  }

  /// The configured scheduler if it is still alive; nullptr otherwise
  /// (never configured, or its owner already destroyed it — every async
  /// path then falls back to synchronous I/O).
  std::shared_ptr<IoScheduler> scheduler() const { return scheduler_.lock(); }

  /// Registers a list as a shed candidate for Rebalance. Expired entries
  /// are pruned opportunistically, so lists need not deregister.
  void Register(std::weak_ptr<SharedPagesList> list);

  /// Sheds in-memory pages engine-wide until the budget is met: the
  /// appender's and then every registered list's already-consumed pages
  /// first (drained open-window history anywhere beats thrashing fresh
  /// pages), falling back to the appender's unread tail so pages can be
  /// shed even when nothing has been read. Returns without shedding
  /// while the spill-write window is full. Called by the
  /// appending list with NO list locks held — each shed takes only its
  /// own list's lock, and the spill I/O itself runs outside it (on the
  /// scheduler's kSpillWrite workers when one is configured, bounded by
  /// spill_write_window). `appender` may be null: async write
  /// completions re-kick Rebalance with no appender so the budget
  /// converges after the producer has closed.
  void Rebalance(SharedPagesList* appender);

  /// Serializes `page` to the spill store, synchronously on the calling
  /// thread (scheduler workers call this as a job body; clients without
  /// a scheduler call it directly). Returns nullptr when the store
  /// cannot be created or written (the caller keeps the page in memory —
  /// over budget beats losing data). Does NOT touch the in-memory
  /// accounting; the caller releases the page it spilled.
  SpilledPageRef Spill(const RowPage& page);

  /// Asynchronous spill: schedules the serialization + writes as one
  /// kSpillWrite job and invokes `install` with the result (nullptr on a
  /// failed store, cancellation, or shutdown) from the worker — the
  /// durability-before-unpin handoff: the caller keeps the page resident
  /// until `install` delivers a durable chain. Declines (returns false,
  /// `install` never called) when the in-flight window is full. Without
  /// a scheduler, degenerates to the synchronous path: `install` runs
  /// inline and the call returns true.
  bool SpillAsync(PageRef page, std::function<void(SpilledPageRef)> install);

  /// Fault-back: reads a spilled page's chain and reconstructs a RowPage
  /// bit-identical to the original. The chain stays allocated (other
  /// readers may fault the same page); it is freed when the last
  /// SpilledPageRef dies. Runs on the calling thread; demand fault-backs
  /// should go through UnspillBlocking so the scheduler prioritizes the
  /// read.
  StatusOr<PageRef> Unspill(const SpilledPage& spilled);

  /// Demand fault-back via the scheduler's kFaultBack class: the chain
  /// is fanned out as per-page DiskManager::ReadPageAsync jobs (so a
  /// multi-page chain's latency-charged reads overlap across workers)
  /// and assembled on the calling thread. Falls back to a synchronous
  /// Unspill when no scheduler is configured or it has shut down. Must
  /// not be called from a scheduler worker — waiting on the tickets
  /// there could self-deadlock; workers use UnspillPrefetch jobs.
  StatusOr<PageRef> UnspillBlocking(const SpilledPageRef& spilled);

  /// Readahead fault-back: schedules the chain read and returns without
  /// waiting; `*out` holds the result once the ticket completes. Returns
  /// nullptr (and never touches `out`) without a scheduler.
  IoTicketRef UnspillPrefetch(
      SpilledPageRef spilled,
      std::shared_ptr<std::optional<StatusOr<PageRef>>> out);

  /// Bytes currently held by the spill store (the sp.spill_bytes gauge).
  int64_t SpillBytes() const { return spill_bytes_->Get(); }

  /// Why the spill tier latched off — OK while it is still usable. The
  /// admin /healthz endpoint surfaces this so "budgeted engine silently
  /// running unbounded" is observable, not just a log line.
  Status DisabledReason() const {
    std::lock_guard<std::mutex> lock(disabled_mutex_);
    return disabled_cause_;
  }

 private:
  friend class SpilledPage;

  explicit SpBudgetGovernor(Options options);

  /// The spill store, created on first use. Returns nullptr on failure.
  DiskManager* EnsureStore();

  /// Latches the spill tier off permanently, recording `cause` for
  /// /healthz and raising the sp.spill_disabled gauge. Idempotent — the
  /// first cause wins and the warning fires once, so a storm of failing
  /// writes cannot flood the log.
  void DisableStore(const Status& cause);

  /// Called by ~SpilledPage: returns a chain to the free list unread.
  void FreeChain(const std::vector<PageId>& chain, std::size_t bytes);

  Options options_;
  Counter* pages_spilled_;
  Counter* unspill_reads_;
  Gauge* spill_bytes_;
  /// 1 once the spill tier latched off (sp.spill_disabled), else 0.
  Gauge* spill_disabled_;

  std::atomic<int64_t> in_memory_{0};
  /// Async spill writes queued or running (bounded by spill_write_window).
  std::atomic<std::size_t> spills_in_flight_{0};
  /// Weak by design — see Options::scheduler.
  std::weak_ptr<IoScheduler> scheduler_;

  std::mutex lists_mutex_;
  std::vector<std::weak_ptr<SharedPagesList>> lists_;

  std::mutex store_mutex_;
  std::unique_ptr<DiskManager> store_;
  /// Latched when the spill store cannot be created: Rebalance becomes a
  /// cheap no-op instead of rescanning every channel on every append.
  std::atomic<bool> store_failed_{false};
  /// First failure that latched the store off (separate lock: DisableStore
  /// runs both with and without store_mutex_ held).
  mutable std::mutex disabled_mutex_;
  Status disabled_cause_ = Status::OK();
};

}  // namespace sharing
