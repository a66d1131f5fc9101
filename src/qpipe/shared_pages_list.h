// SharedPagesList (SPL): the paper's novel data structure for pull-based SP.
//
// A single producer appends immutable pages; any number of consumers read
// the list at their own pace. Where the push model *forwards* (copies)
// intermediate results into each consumer's FIFO — serializing all copies
// through the producer thread — the SPL *shares* them: a page is produced
// once and every consumer holds a reference. Consumers attaching
// mid-production observe the full result because the list retains pages
// from the beginning (this is what widens SP's sharing window in pull
// mode).
//
// Concurrency (the low-contention hot path):
//
//  * Publication is seqlock-style: the producer fills an immutable slot
//    and then advances the atomic published count (`published_`, release
//    on store). A reader gates on `published_` (acquire) and reads the
//    slot without the list mutex — `SplReader::NextBatch` over resident,
//    already-published pages never touches it. Slots live in
//    fixed-size segments linked by atomic next pointers; each reader
//    holds a shared_ptr to its current segment, so reclamation can drop
//    head segments without synchronizing with readers.
//  * A slot's resident page sits behind a per-slot spin latch, held only
//    to copy or swap the reference, because the spill tier migrates
//    pages to disk concurrently with those readers: a reader either
//    copies the page (its reference keeps it alive) or observes null and
//    takes the slow path.
//  * The list mutex is only taken on slow paths: attach/detach, spill
//    fault-back, reclamation, close/seal, and the producer's append
//    bookkeeping (`sp.lock_waits` counts reader slow paths).
//  * Blocked readers park on their OWN mutex/condvar (`ReaderState`), not
//    a shared broadcast (`sp.reader_parks` counts parks; a short spin
//    precedes the park on multicore hosts). On append the producer seeds
//    ONE notification to a frontier-parked reader and each woken reader
//    fans the wake out to two more, so the producer's wake cost is O(1)
//    however many readers are parked — no `notify_all` herd through one
//    lock, and no per-reader futex sweep on the append path. Close wakes
//    everyone directly (it happens once). The flag/published handshake
//    is seq_cst on both sides (Dekker-style) so a seal/close racing a
//    parking reader can never lose the wakeup.
//  * Reader positions are atomic cursors registered in a small number of
//    cache-line-padded shards: reclamation and `ShedForBudget` compute
//    the min/max cursor by scanning shard-by-shard under per-shard spin
//    latches — never by locking every reader on the append or read path.
//
// Memory, two tiers:
//  * Reclamation (as in the original paper): while the attach window is
//    open a late consumer may still need the full history, so nothing is
//    freed; once SealAttachWindow() is called (the PullChannel seals when
//    the producer closes) a page is dropped as soon as every attached
//    reader has moved past it.
//  * Spill (the SpBudgetGovernor tier): reclamation alone lets one
//    stalled reader pin the whole result in RAM. With a governor
//    configured, whenever the engine-wide in-memory SP page count exceeds
//    the budget the governor rebalances across *every* registered list
//    (ShedForBudget): drained and already-consumed pages anywhere spill
//    first — an idle channel's cold history beats thrashing the active
//    producer's fresh pages — and the I/O runs outside the list lock.
//    A spilled page faults back bit-exactly on read; once every reader
//    passes it, reclamation deletes it unread. Spilling never needs the
//    window sealed: a late attacher is served spilled history via
//    fault-back.
//
// The pages currently memory-resident are tracked by the
// `sp.pages_retained` gauge (spilled pages move to `sp.spill_bytes`), so
// bounded memory is observable: both return to zero after all readers
// drain. See DESIGN.md for the policy decision list.

#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/spin_latch.h"
#include "exec/page_stream.h"
#include "qpipe/sp_budget_governor.h"

namespace sharing {

class SplReader;

/// How deep a ShedForBudget pass may reach into a list's retained pages.
/// Tiers order victims by fault-in odds: drained open-window history is
/// re-read only by a late attacher; consumed-but-not-drained pages will
/// be read by a laggard; unread pages will be read next.
enum class SpillTier {
  kDrained,   // only pages every reader has passed
  kConsumed,  // + pages the fastest reader consumed (laggard still needs)
  kUnread,    // + the unread tail (hard-bound last resort)
};

class SharedPagesList
    : public std::enable_shared_from_this<SharedPagesList> {
 public:
  static std::shared_ptr<SharedPagesList> Create(
      MetricsRegistry* metrics = &MetricsRegistry::Global(),
      std::shared_ptr<SpBudgetGovernor> governor = nullptr) {
    auto list = std::shared_ptr<SharedPagesList>(
        new SharedPagesList(metrics, std::move(governor)));
    // Registration makes this list a shed candidate for engine-wide
    // rebalancing (another channel's append may spill our drained
    // history rather than thrash its own fresh pages).
    if (list->governor_ != nullptr) list->governor_->Register(list);
    return list;
  }

  ~SharedPagesList();

  SHARING_DISALLOW_COPY_AND_MOVE(SharedPagesList);

  /// Producer: appends a run of pages (no copy — all readers share them)
  /// with one bookkeeping pass, one parked-reader wake and one governor
  /// rebalance. Returns the total pages appended so far, or 0 when no
  /// reader can ever observe them (every reader cancelled, or the window
  /// is sealed with none attached; nothing was appended), signalling the
  /// producer to stop early. May spill retained pages when the governor
  /// reports budget pressure.
  std::size_t AppendBatch(std::vector<PageRef> pages);

  /// AppendBatch of one page.
  std::size_t Append(PageRef page) { return AppendBatch({std::move(page)}); }

  /// Producer: seals the list with a terminal status and wakes every
  /// parked reader (they observe end-of-list once past the frontier).
  void Close(Status final);

  /// Producer: ends the list with OK but leaves the attach window open
  /// until a reader has read the list to its end or every reader has
  /// left, whichever comes first. The list then seals itself and calls
  /// `on_seal` once, with no list lock held. A late attacher can still
  /// read the whole result (nothing is reclaimed before the seal), but
  /// none can attach once any reader may have returned end-of-stream.
  void Finish(std::function<void()> on_seal);

  /// Closes the attach window: AttachReader() fails from now on, which
  /// makes page reclamation safe (no future reader can need the history).
  /// Idempotent; typically invoked by the owning channel at Close. Does
  /// NOT wake parked readers — sealing changes no read predicate; only
  /// Close (end-of-list) and Append (new page) do.
  void SealAttachWindow();

  /// Attaches a reader starting at the first page. Returns nullptr when
  /// the attach window is sealed or the list terminated with a non-OK
  /// status (no point sharing an aborted result). Thread-safe; may be
  /// called while the producer is appending (the widened pull-model
  /// sharing window) or after it closed OK.
  std::shared_ptr<SplReader> AttachReader();

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Trace correlation ids stamped on this list's park / fault-back /
  /// attach / close trace records (see common/trace.h). Set once by the
  /// owning channel before readers exist; 0 = untraced.
  void SetTraceIdentity(uint64_t query_id, uint64_t signature) {
    trace_query_id_ = query_id;
    trace_signature_ = signature;
  }

  /// Pages currently retained (appended minus reclaimed), resident or
  /// spilled.
  std::size_t NumPages() const {
    // published_ is written after base_pub_ can only lag it, so the
    // difference is a conservative (never negative) retained count.
    const std::size_t base = base_pub_.load(std::memory_order_acquire);
    const std::size_t pub = published_.load(std::memory_order_acquire);
    return pub > base ? pub - base : 0;
  }

  /// Retained pages currently memory-resident (excludes spilled).
  std::size_t InMemoryPages() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return in_memory_;
  }

  /// Pages ever appended, including reclaimed ones.
  std::size_t TotalAppended() const {
    return published_.load(std::memory_order_acquire);
  }

  std::size_t ActiveReaders() const {
    return active_readers_.load(std::memory_order_acquire);
  }

  std::size_t EverAttached() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ever_attached_;
  }

  /// Smallest position (pages consumed) across active readers; equals
  /// TotalAppended() when no reader is active. Computed from the sharded
  /// atomic cursors — takes no list lock.
  std::size_t MinReaderPosition() const;

  /// Governor callback: migrates up to `max_pages` resident pages no
  /// deeper than `tier` to the spill store and returns how many spills
  /// were *initiated*. Within the allowed tiers victims are taken best
  /// fault-in odds first (drained, then consumed newest-first, then
  /// unread newest-first — see SpillTier). The spill I/O runs OUTSIDE
  /// the list lock — asynchronously on the governor's I/O scheduler when
  /// one is configured — and a victim stays resident *and readable*
  /// until its write is durable (the durability-before-unpin contract):
  /// only the install step performed at write completion swaps the page
  /// out of memory. A slot reclaimed mid-spill just drops the fresh
  /// chain.
  std::size_t ShedForBudget(std::size_t max_pages, SpillTier tier);

  /// A mutually consistent view of the list, taken under one lock.
  struct Snapshot {
    std::size_t ever_attached = 0;
    std::size_t active_readers = 0;
    std::size_t total_appended = 0;
    std::size_t min_reader_position = 0;
    bool closed = false;
    bool sealed = false;
  };
  Snapshot GetSnapshot() const;

  /// One reader's observable state, read from the sharded atomic
  /// cursors and parking flags (the introspection path adds NO hot-path
  /// synchronization — see DeepSnapshot).
  struct ReaderIntrospection {
    std::size_t position = 0;
    bool parked = false;
    /// How long the reader has currently been parked (0 when not
    /// parked). Advisory: written relaxed on the park slow path.
    int64_t parked_for_micros = 0;
    bool cancelled = false;
  };

  /// The admin server's deep view: retention split into resident vs
  /// spilled, the publication/reclamation frontiers, and every
  /// registered reader's cursor/lag/parked state. Rides the existing
  /// synchronization only — the list mutex for the resident count (a
  /// slow-path lock appends already take), per-shard spin latches for
  /// the reader walk, and the atomic frontiers for everything else.
  /// Never taken on the producer/reader fast paths.
  struct DeepSnapshot {
    std::size_t published = 0;       // pages ever appended
    std::size_t reclaimed = 0;       // pages freed behind every reader
    std::size_t retained = 0;        // published - reclaimed
    std::size_t resident_pages = 0;  // retained and memory-resident
    std::size_t spilled_pages = 0;   // retained - resident
    std::size_t ever_attached = 0;
    std::size_t active_readers = 0;
    std::size_t min_reader_position = 0;
    bool closed = false;
    bool sealed = false;
    std::vector<ReaderIntrospection> readers;
  };
  DeepSnapshot GetDeepSnapshot() const;

 private:
  friend class SplReader;

  /// Slots per segment. Small enough that a short list stays cheap,
  /// large enough that a reader crosses a segment boundary (one extra
  /// atomic load) rarely.
  static constexpr std::size_t kSegmentSlots = 64;
  /// Reader-registry shards; attach/detach and min-cursor scans touch
  /// per-shard spin latches, never the list mutex.
  static constexpr std::size_t kReaderShards = 8;

  /// A retained position. The resident page (memory tier) is read by the
  /// lock-free reader fast path while the spill install and reclamation
  /// swap it out, so it sits behind a per-slot spin latch held only to
  /// copy or swap the reference: a reader either copies the page (its
  /// reference keeps it alive) or sees null and falls to the locked slow
  /// path. Every writer also holds mutex_, so mutex_ holders read `page`
  /// directly. `spilled` and `spilling` are guarded by mutex_.
  struct Slot {
    /// Copies the resident page; null once spilled or reclaimed.
    PageRef Load() const {
      SpinLatchGuard guard(latch);
      return page;
    }
    /// Replaces the resident page and returns the old one, which the
    /// caller drops outside the latch. Requires mutex_ held.
    PageRef Exchange(PageRef next) {
      SpinLatchGuard guard(latch);
      page.swap(next);
      return next;
    }

    mutable SpinLatch latch;
    PageRef page;  // written under latch + mutex_
    SpilledPageRef spilled;
    bool spilling = false;
  };

  /// A fixed run of slots. Immutable once linked: `first` never changes
  /// and `next` is written exactly once (by the producer, before the
  /// first position of the next segment is published). Readers keep a
  /// shared_ptr to their current segment and walk `next`, so dropping a
  /// fully reclaimed head segment needs no reader coordination.
  struct Segment {
    explicit Segment(std::size_t first_pos) : first(first_pos) {}
    const std::size_t first;
    std::array<Slot, kSegmentSlots> slots;
    std::atomic<std::shared_ptr<Segment>> next{nullptr};
  };

  /// One reader's shared accounting + parking slot. Owned jointly by the
  /// SplReader and the shard registry so a cancelled reader's state
  /// survives whichever side lets go last.
  struct ReaderState {
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> cancelled{false};
    /// True while the reader is (about to be) blocked in wait_cv. The
    /// park handshake is seq_cst against published_/closed_ (see
    /// SplReader::ParkUntilReady and WakeParkedReaders).
    std::atomic<bool> parked{false};
    /// Trace-timebase micros when the current park began (0 when not
    /// parked). Advisory introspection only — written relaxed inside
    /// the already-slow park path, read by GetDeepSnapshot and the
    /// watchdog's parked-reader stall detector.
    std::atomic<int64_t> parked_since_micros{0};
    std::mutex wait_mutex;
    std::condition_variable wait_cv;
  };

  struct alignas(64) ReaderShard {
    mutable SpinLatch latch;
    std::vector<std::shared_ptr<ReaderState>> readers;
  };

  SharedPagesList(MetricsRegistry* metrics,
                  std::shared_ptr<SpBudgetGovernor> governor)
      : pages_shared_(metrics->GetCounter(metrics::kSpPagesShared)),
        pages_reclaimed_(metrics->GetCounter(metrics::kSpPagesReclaimed)),
        pages_retained_(metrics->GetGauge(metrics::kSpPagesRetained)),
        lock_waits_(metrics->GetCounter(metrics::kSpLockWaits)),
        reader_parks_(metrics->GetCounter(metrics::kSpReaderParks)),
        governor_(std::move(governor)) {
    segments_.push_back(std::make_shared<Segment>(0));
  }

  /// O(1) slot lookup by absolute position (segments are contiguous and
  /// aligned). Requires mutex_ held and base_ <= pos < published.
  Slot& SlotAtLocked(std::size_t pos) {
    const std::size_t front_first = segments_.front()->first;
    Segment& seg = *segments_[(pos - front_first) / kSegmentSlots];
    return seg.slots[pos - seg.first];
  }

  /// Appends one page to the tail segment and publishes it. Requires
  /// mutex_ held; returns the new total.
  std::size_t AppendOneLocked(PageRef page);

  /// True when no present or future reader can observe an append (the
  /// AppendBatch early-stop contract). Requires mutex_ held.
  bool NoObserversLocked() const {
    return active_readers_.load(std::memory_order_relaxed) == 0 &&
           (ever_attached_ > 0 || sealed_.load(std::memory_order_relaxed));
  }

  /// Min/max over the sharded atomic reader cursors (per-shard latches
  /// only; callable with or without mutex_).
  std::size_t MinReaderPositionShards() const;
  std::size_t MaxReaderPositionShards() const;

  /// Notifies every parked reader (each on its own condvar) — the close
  /// path. Called with NO list lock held, after the predicate change
  /// (published_/closed_) is globally visible; the seq_cst flag
  /// handshake makes the sweep race-free against readers parking
  /// concurrently.
  void WakeParkedReaders();

  /// Notifies up to `max_readers` parked readers whose cursor is behind
  /// the publication frontier — the append path's chained wakeup: the
  /// producer seeds one, every woken reader fans out to two more
  /// (ParkUntilReady), so the producer's wake cost is O(1) in fan-out.
  void WakeFrontierParked(std::size_t max_readers);

  /// Completion handoff for an async spill of the page at absolute
  /// position `pos`: installs the durable chain (releasing the resident
  /// page) or, on a failed/skipped spill (`spilled` null), just unmarks
  /// the victim so it stays resident. Runs on the I/O worker.
  void InstallSpilled(std::size_t pos, SpilledPageRef spilled);

  /// Frees every page all readers have passed. Only legal once the attach
  /// window is sealed (a future reader could otherwise miss history).
  /// Spilled slots are deleted without being re-read.
  void MaybeReclaimLocked();

  /// Seals the attach window (if still open) and reclaims; returns the
  /// Finish hook for the caller to run once it has dropped mutex_ (empty
  /// when the list was already sealed or never finished). Requires mutex_.
  std::function<void()> SealLocked();

  /// A reader reached the end of a closed list: a finished list seals
  /// now, before the reader can return end-of-stream.
  void SealAtEnd();

  /// Seals a finished list that no reader is left to read; returns the
  /// Finish hook as SealLocked does. Requires mutex_.
  std::function<void()> SealIfAbandonedLocked();

  Counter* pages_shared_;
  Counter* pages_reclaimed_;
  Gauge* pages_retained_;
  Counter* lock_waits_;
  Counter* reader_parks_;
  std::shared_ptr<SpBudgetGovernor> governor_;

  /// Publication frontier: positions below it are readable without any
  /// lock. Stored seq_cst by the producer (the parking handshake needs
  /// the store ordered before the parked-flag sweep).
  std::atomic<std::size_t> published_{0};
  /// Atomic mirror of base_ — the reclamation frontier. Readers compare
  /// their position against it to decide whether advancing may unblock
  /// reclamation (only the reader leaving the frontier can raise the
  /// min), so the check costs one atomic load, not a lock. The
  /// cursor-store/base_pub_-load handshake is seq_cst against the
  /// reclaimer's base_pub_-store/cursor-load, and MaybeReclaimLocked
  /// re-scans until the min stops moving — together these close the
  /// store-buffering race where a reader skips its probe just as the
  /// reclaimer misses its advanced cursor.
  std::atomic<std::size_t> base_pub_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> sealed_{false};
  /// Closed by Finish: seals once read to the end or left by every
  /// reader (a plain Close leaves sealing to its caller).
  std::atomic<bool> finished_{false};
  std::atomic<std::size_t> active_readers_{0};
  /// Parked readers, maintained by the park/unpark handshake. The
  /// producer skips the wake sweep entirely while it reads zero (the
  /// common keeping-up case).
  std::atomic<std::size_t> parked_count_{0};

  std::array<ReaderShard, kReaderShards> shards_;

  mutable std::mutex mutex_;
  /// Strong refs to the retained segment run, front = oldest. Guarded by
  /// mutex_; readers never touch it (they walk Segment::next).
  std::deque<std::shared_ptr<Segment>> segments_;
  /// First non-reclaimed position (mirrored in base_pub_).
  std::size_t base_ = 0;
  /// Resident slots (retained minus spilled); drives governor accounting.
  std::size_t in_memory_ = 0;
  Status final_;
  std::size_t ever_attached_ = 0;
  /// Finish's hook, run once by whoever seals the finished list.
  std::function<void()> on_seal_;

  /// Trace correlation (SetTraceIdentity): written before concurrency
  /// starts, read relaxed from reader threads.
  uint64_t trace_query_id_ = 0;
  uint64_t trace_signature_ = 0;
};

/// One consumer's cursor into a SharedPagesList.
class SplReader final : public PageSource {
 public:
  ~SplReader() override {
    if (prefetch_ticket_ != nullptr) prefetch_ticket_->TryCancel();
    Cancel();
  }
  SHARING_DISALLOW_COPY_AND_MOVE(SplReader);

  /// Up to `max_pages` already-published resident pages with ONE cursor
  /// publication (and at most one reclamation probe); lock-free on that
  /// run. Blocks when nothing is available; returns 0 only at
  /// end-of-list (or after a fault-back error / cancel). A spilled page
  /// at the cursor is faulted back alone from the governor's store
  /// (bit-exact reconstruction, charged to sp.unspill_reads) — through
  /// the I/O scheduler's kFaultBack class when one is configured, which
  /// also readaheads the *next* slot if it is already spilled, so a
  /// sequential reader overlaps fault-back latency with consumption.
  std::size_t NextBatch(std::size_t max_pages,
                        std::vector<PageRef>* out) override;

  Status FinalStatus() const override;

  void CancelConsumer() override { Cancel(); }

  /// Pages this reader has consumed (the reader-position contract).
  std::size_t PagesDelivered() const override {
    return state_->cursor.load(std::memory_order_acquire);
  }

  /// Detaches; a producer with no remaining readers stops early, and the
  /// pages this reader was holding back become reclaimable.
  void Cancel();

  /// Stop probe (query deadline / watchdog cancel): a parked reader polls
  /// it in bounded wait slices instead of sleeping until the producer
  /// publishes, and on a non-OK probe detaches with that status sticky in
  /// FinalStatus. Bind before the consumer's first read.
  void BindStopCheck(std::function<Status()> stop_check) override {
    stop_check_ = std::move(stop_check);
  }

 private:
  friend class SharedPagesList;
  SplReader(std::shared_ptr<SharedPagesList> list,
            std::shared_ptr<SharedPagesList::ReaderState> state)
      : list_(std::move(list)), state_(std::move(state)) {}

  /// Lock-free slot lookup: walks the segment chain from the reader's
  /// current segment (cursor positions are monotonic, so the walk only
  /// ever goes forward). Requires pos < published_.
  SharedPagesList::Slot& SlotFor(std::size_t pos) {
    while (pos >= seg_->first + SharedPagesList::kSegmentSlots) {
      seg_ = seg_->next.load(std::memory_order_acquire);
    }
    return seg_->slots[pos - seg_->first];
  }

  /// Publishes the cursor move to `next` and probes reclamation iff this
  /// reader was the one sitting on the reclamation frontier.
  void AdvanceTo(std::size_t next);

  /// Locked slow path for the non-resident slot at `pos`: spill
  /// fault-back (+ next-slot readahead), sticky error capture. Advances
  /// the cursor past `pos` on success.
  PageRef SlowResolve(std::size_t pos);

  /// Parks on the reader's own condvar until a page is published, the
  /// list closes, or the reader is cancelled. With a stop probe bound the
  /// wait runs in bounded slices polling it. Returns false iff cancelled
  /// or stopped by the probe.
  bool ParkUntilReady();

  /// The stop-probe exit: latches `st` into error_ (surfaced through
  /// FinalStatus) and detaches the reader. Always returns false.
  bool FailStopped(const Status& st);

  std::shared_ptr<SharedPagesList> list_;
  std::shared_ptr<SharedPagesList::ReaderState> state_;
  /// The segment containing cursor_ (reader-local; see SlotFor).
  std::shared_ptr<SharedPagesList::Segment> seg_;
  /// Reader-local cursor mirror (state_->cursor is the published copy).
  std::size_t cursor_ = 0;
  std::size_t shard_index_ = 0;
  /// Sticky fault-back (or stop-probe) failure; surfaced through
  /// FinalStatus. Guarded by the list mutex.
  Status error_;
  /// External stop probe (see BindStopCheck). Written before the first
  /// read, then only called from this reader's own thread.
  std::function<Status()> stop_check_;
  /// In-flight readahead of the next spilled slot. Touched only by this
  /// reader's own reads/destructor (readers are single-consumer), so it
  /// needs no lock of its own.
  std::size_t prefetch_pos_ = static_cast<std::size_t>(-1);
  IoTicketRef prefetch_ticket_;
  std::shared_ptr<std::optional<StatusOr<PageRef>>> prefetch_out_;
};

}  // namespace sharing
