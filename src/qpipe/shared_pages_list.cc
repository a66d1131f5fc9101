#include "qpipe/shared_pages_list.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"

namespace sharing {

SharedPagesList::~SharedPagesList() {
  // Whatever survived reclamation is released now; keep the gauge (and
  // the governor's engine-wide account) honest. Spilled slots free their
  // disk chains as the refs die. Segments are dropped front-to-back so a
  // long chain never unwinds recursively through Segment::next.
  pages_retained_->Sub(static_cast<int64_t>(in_memory_));
  if (governor_ != nullptr) governor_->OnPagesReleased(in_memory_);
  while (!segments_.empty()) segments_.pop_front();
}

std::size_t SharedPagesList::AppendOneLocked(PageRef page) {
  const std::size_t pos = published_.load(std::memory_order_relaxed);
  Segment* tail = segments_.back().get();
  if (pos >= tail->first + kSegmentSlots) {
    auto seg = std::make_shared<Segment>(pos);
    // Link before publish: a reader that observes published_ > pos can
    // always walk next into the segment holding pos.
    tail->next.store(seg, std::memory_order_release);
    segments_.push_back(std::move(seg));
    tail = segments_.back().get();
  }
  // The slot itself is invisible until published_ covers it; the latch
  // only keeps the store uniform with the other writers.
  tail->slots[pos - tail->first].Exchange(std::move(page));
  ++in_memory_;
  // seq_cst, not just release: the parked-flag sweep that follows must be
  // ordered after this store or a reader parking concurrently could miss
  // both the page and the wakeup (see WakeParkedReaders).
  published_.store(pos + 1, std::memory_order_seq_cst);
  pages_shared_->Increment();
  pages_retained_->Add(1);
  return pos + 1;
}

std::size_t SharedPagesList::AppendBatch(std::vector<PageRef> pages) {
  if (pages.empty()) {
    return closed_.load(std::memory_order_acquire) ? 0 : TotalAppended();
  }
  std::size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_.load(std::memory_order_relaxed)) return 0;
    // Everyone who was (or could ever be) interested has walked away.
    if (NoObserversLocked()) return 0;
    for (PageRef& page : pages) total = AppendOneLocked(std::move(page));
  }
  if (governor_ != nullptr) governor_->OnPagesRetained(pages.size());
  WakeFrontierParked(1);  // seed the chained wakeup (O(1) for the producer)
  // Budget enforcement happens with no list lock held: the governor may
  // shed this list's pages, another channel's drained history, or (last
  // resort) our unread tail — see SpBudgetGovernor::Rebalance.
  if (governor_ != nullptr) governor_->Rebalance(this);
  return total;
}

void SharedPagesList::WakeParkedReaders() {
  // The predicate change (published_/closed_, both seq_cst stores) is
  // already visible. If a parking reader's flag store is not yet in the
  // seq_cst order when we load the count, that reader's own predicate
  // re-check — which follows its flag store — necessarily observes the
  // change and skips the wait; if it is, we find the flag below and lock
  // its mutex before notifying, which serializes with its wait.
  if (parked_count_.load(std::memory_order_seq_cst) == 0) return;
  std::vector<std::shared_ptr<ReaderState>> to_wake;
  for (const ReaderShard& shard : shards_) {
    SpinLatchGuard guard(shard.latch);
    for (const auto& reader : shard.readers) {
      if (reader->parked.load(std::memory_order_relaxed)) {
        to_wake.push_back(reader);
      }
    }
  }
  for (const auto& reader : to_wake) {
    { std::lock_guard<std::mutex> sync(reader->wait_mutex); }
    reader->wait_cv.notify_all();
  }
}

void SharedPagesList::WakeFrontierParked(std::size_t max_readers) {
  // Chained wakeup: the producer seeds ONE notification per append
  // (bounded cost however many readers are parked) and every woken
  // reader continues the chain with binary fan-out before it consumes
  // (ParkUntilReady), so k parked readers wake in O(log k) chained steps
  // none of which the producer pays for.
  //
  // Only readers still BEHIND the frontier are candidates: a reader that
  // parked after this append (cursor == new published) has nothing to
  // read, and handing it the only notification would strand the stale-
  // cursor readers the wake was for — the lost-wakeup this filter
  // exists to prevent. Readers parked for the close predicate instead
  // are woken by WakeParkedReaders (the close path wakes everyone).
  if (parked_count_.load(std::memory_order_seq_cst) == 0) return;
  const std::size_t published = published_.load(std::memory_order_seq_cst);
  std::vector<std::shared_ptr<ReaderState>> to_wake;
  for (const ReaderShard& shard : shards_) {
    if (to_wake.size() >= max_readers) break;
    SpinLatchGuard guard(shard.latch);
    for (const auto& reader : shard.readers) {
      if (reader->parked.load(std::memory_order_relaxed) &&
          reader->cursor.load(std::memory_order_acquire) < published) {
        to_wake.push_back(reader);
        if (to_wake.size() >= max_readers) break;
      }
    }
  }
  for (const auto& reader : to_wake) {
    { std::lock_guard<std::mutex> sync(reader->wait_mutex); }
    reader->wait_cv.notify_all();
  }
}

void SharedPagesList::Close(Status final) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_.load(std::memory_order_relaxed)) return;
    final_ = std::move(final);
    // seq_cst for the same parked-sweep ordering as published_.
    closed_.store(true, std::memory_order_seq_cst);
    MaybeReclaimLocked();
  }
  WakeParkedReaders();
  TRACE_EVENT("sharing", "spl.close", trace_query_id_, trace_signature_);
}

void SharedPagesList::Finish(std::function<void()> on_seal) {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_.load(std::memory_order_relaxed)) return;
    final_ = Status::OK();
    on_seal_ = std::move(on_seal);
    finished_.store(true, std::memory_order_seq_cst);
    closed_.store(true, std::memory_order_seq_cst);
    hook = SealIfAbandonedLocked();
  }
  WakeParkedReaders();
  TRACE_EVENT("sharing", "spl.close", trace_query_id_, trace_signature_);
  if (hook) hook();
}

std::function<void()> SharedPagesList::SealLocked() {
  if (sealed_.load(std::memory_order_relaxed)) return nullptr;
  sealed_.store(true, std::memory_order_seq_cst);
  MaybeReclaimLocked();
  return std::exchange(on_seal_, nullptr);
}

void SharedPagesList::SealAttachWindow() {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hook = SealLocked();
  }
  // No wake: sealing changes no reader predicate (readers wait for pages
  // or close). The producer's Close, which follows the seal in every
  // channel, performs the terminal wakeup.
  if (hook) hook();
}

std::function<void()> SharedPagesList::SealIfAbandonedLocked() {
  if (!finished_.load(std::memory_order_relaxed) ||
      active_readers_.load(std::memory_order_relaxed) != 0) {
    return nullptr;
  }
  return SealLocked();
}

void SharedPagesList::SealAtEnd() {
  if (!finished_.load(std::memory_order_acquire) ||
      sealed_.load(std::memory_order_acquire)) {
    return;
  }
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hook = SealLocked();
  }
  if (hook) hook();
}

std::shared_ptr<SplReader> SharedPagesList::AttachReader(ExecContextRef ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!AttachWindowOpenLocked()) return nullptr;
  auto state = std::make_shared<ReaderState>();
  auto reader =
      std::shared_ptr<SplReader>(new SplReader(shared_from_this(), state,
                                               std::move(ctx)));
  // Pre-seal, nothing has been reclaimed: the front segment still starts
  // at position 0, the new reader's cursor.
  reader->seg_ = segments_.front();
  reader->shard_index_ = ever_attached_ % kReaderShards;
  {
    SpinLatchGuard guard(shards_[reader->shard_index_].latch);
    shards_[reader->shard_index_].readers.push_back(std::move(state));
  }
  ++ever_attached_;
  active_readers_.fetch_add(1, std::memory_order_acq_rel);
  TRACE_EVENT("sharing", "spl.attach", trace_query_id_, trace_signature_);
  return reader;
}

std::size_t SharedPagesList::MinReaderPosition() const {
  std::size_t min_pos = std::numeric_limits<std::size_t>::max();
  bool any = false;
  for (const ReaderShard& shard : shards_) {
    SpinLatchGuard guard(shard.latch);
    for (const auto& reader : shard.readers) {
      if (reader->cancelled.load(std::memory_order_acquire)) continue;
      any = true;
      // seq_cst, matching the cursor store in AdvanceTo: the frontier
      // handoff is a store-buffering pattern (reader stores cursor then
      // loads base_pub_; reclaimer stores base_pub_ then loads cursors)
      // and weaker orders would let BOTH sides read the stale value —
      // the reader skipping its probe while the reclaimer misses the
      // advanced cursor, stalling reclamation.
      min_pos =
          std::min(min_pos, reader->cursor.load(std::memory_order_seq_cst));
    }
  }
  return any ? min_pos : published_.load(std::memory_order_acquire);
}

std::size_t SharedPagesList::MaxReaderPosition() const {
  std::size_t max_pos = 0;
  for (const ReaderShard& shard : shards_) {
    SpinLatchGuard guard(shard.latch);
    for (const auto& reader : shard.readers) {
      if (reader->cancelled.load(std::memory_order_acquire)) continue;
      max_pos =
          std::max(max_pos, reader->cursor.load(std::memory_order_acquire));
    }
  }
  return max_pos;
}

SessionView SharedPagesList::View() const {
  SessionView view;
  const int64_t now = Trace::NowMicros();
  // Reader walk first, outside the list mutex: only the per-shard spin
  // latches attach/detach already take. Parked-flag and since-stamp are
  // two relaxed loads — a reader unparking mid-walk can yield a stale
  // pairing, which is fine for an advisory surface.
  bool any_active = false;
  for (const ReaderShard& shard : shards_) {
    SpinLatchGuard guard(shard.latch);
    for (const auto& reader : shard.readers) {
      SessionView::Reader info;
      info.position = reader->cursor.load(std::memory_order_acquire);
      info.cancelled = reader->cancelled.load(std::memory_order_acquire);
      info.parked = reader->parked.load(std::memory_order_acquire);
      const int64_t since =
          reader->parked_since_micros.load(std::memory_order_relaxed);
      if (info.parked && since > 0 && now > since) {
        info.parked_for_micros = now - since;
      }
      if (!info.cancelled) {
        view.min_reader_position =
            any_active ? std::min(view.min_reader_position, info.position)
                       : info.position;
        any_active = true;
      }
      view.readers.push_back(info);
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  view.published = published_.load(std::memory_order_relaxed);
  if (!any_active) view.min_reader_position = view.published;
  view.reclaimed = base_;
  const std::size_t retained =
      view.published > base_ ? view.published - base_ : 0;
  view.resident_pages = in_memory_;
  view.spilled_pages = retained > in_memory_ ? retained - in_memory_ : 0;
  view.ever_attached = ever_attached_;
  view.active_readers = active_readers_.load(std::memory_order_relaxed);
  view.closed = closed_.load(std::memory_order_relaxed);
  view.sealed = sealed_.load(std::memory_order_relaxed);
  view.attach_window_open = AttachWindowOpenLocked();
  return view;
}

void SharedPagesList::MaybeReclaimLocked() {
  if (!sealed_.load(std::memory_order_relaxed)) {
    return;  // a late attacher could still need the history
  }
  // Loop until the min cursor stops advancing. A reader that crossed the
  // old frontier while this pass ran may have read the stale base_pub_
  // and skipped its own reclamation probe; the seq_cst store/load pairing
  // with AdvanceTo guarantees that in exactly that case the re-scan below
  // observes the reader's advanced cursor, so the page cannot be
  // stranded between a probe that skipped and a scan that missed.
  for (;;) {
    const std::size_t min_pos = MinReaderPosition();
    if (base_ >= min_pos) return;
    int64_t freed = 0;
    int64_t freed_resident = 0;
    while (base_ < min_pos) {
      Slot& slot = SlotAtLocked(base_);
      // Readers never touch slots behind the min cursor (a reader only
      // publishes its advance after taking its page reference); the
      // latch makes that ordering visible to the race detector as well.
      if (slot.Exchange(nullptr) != nullptr) {
        ++freed_resident;
      }
      // A spilled slot's chain is deleted unread: dropping the last
      // SpilledPageRef returns its disk pages to the free list.
      slot.spilled.reset();
      ++base_;
      ++freed;
      // Keep at least the tail segment: the producer appends into
      // segments_.back(), so the segment run must never go empty.
      while (segments_.size() > 1 &&
             base_ >= segments_.front()->first + kSegmentSlots) {
        segments_.pop_front();
      }
    }
    base_pub_.store(base_, std::memory_order_seq_cst);
    pages_reclaimed_->Add(freed);
    pages_retained_->Sub(freed_resident);
    in_memory_ -= static_cast<std::size_t>(freed_resident);
    if (governor_ != nullptr && freed_resident > 0) {
      governor_->OnPagesReleased(static_cast<std::size_t>(freed_resident));
    }
  }
}

std::size_t SharedPagesList::ShedForBudget(std::size_t max_pages,
                                           SpillTier tier) {
  if (max_pages == 0) return 0;
  // Victims are selected (and marked) under the lock, serialized outside
  // it, and installed under the lock again, so readers keep consuming
  // resident pages — including the victims — while the spill I/O runs.
  struct Victim {
    std::size_t pos;  // absolute position (survives base_ shifts)
    PageRef page;
  };
  std::vector<Victim> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t end = published_.load(std::memory_order_relaxed);
    if (end == base_) return 0;
    // Within the allowed tiers, best fault-in odds first: drained
    // history (re-read only by a late attacher, deleted unread at seal
    // otherwise), then consumed-but-not-drained newest first (a laggard
    // reaches those last — Belady-ish), then the unread tail newest
    // first. Reader positions come from the shard scan — no per-reader
    // locking under the list mutex.
    std::size_t consumed_end;
    std::size_t drained_end;
    if (active_readers_.load(std::memory_order_relaxed) == 0) {
      // Every reader cancelled (or none attached yet): the retained
      // window can only ever serve a late attacher, which is exactly the
      // drained tier — not a last-resort unread tail.
      drained_end = consumed_end = end;
    } else {
      consumed_end = std::clamp(MaxReaderPosition(), base_, end);
      drained_end = std::clamp(MinReaderPosition(), base_, consumed_end);
    }
    auto collect = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t pos = hi; pos-- > lo && victims.size() < max_pages;) {
        Slot& slot = SlotAtLocked(pos);
        if (slot.spilling) continue;
        if (slot.page == nullptr) continue;
        slot.spilling = true;
        victims.push_back(Victim{pos, slot.page});
      }
    };
    collect(base_, drained_end);
    if (tier != SpillTier::kDrained) collect(drained_end, consumed_end);
    if (tier == SpillTier::kUnread) collect(consumed_end, end);
  }
  if (victims.empty()) return 0;

  // Initiate the spill I/O with no list lock held. With a scheduler the
  // write runs asynchronously on a kSpillWrite worker and InstallSpilled
  // is the completion handoff; without one, SpillAsync degenerates to
  // the synchronous spill-then-install path inline. Either way the
  // victim stays resident and readable until its chain is durable.
  auto self = shared_from_this();
  std::size_t initiated = 0;
  for (auto& victim : victims) {
    const std::size_t pos = victim.pos;
    const bool accepted = governor_->SpillAsync(
        std::move(victim.page),
        [self, pos](SpilledPageRef spilled) {
          self->InstallSpilled(pos, std::move(spilled));
        });
    if (!accepted) {
      // In-flight window full (or scheduler shut down): unmark so a
      // later pass can re-select the victim; it stays resident.
      std::lock_guard<std::mutex> lock(mutex_);
      if (pos >= base_) SlotAtLocked(pos).spilling = false;
      continue;
    }
    ++initiated;
  }
  return initiated;
}

void SharedPagesList::InstallSpilled(std::size_t pos, SpilledPageRef spilled) {
  bool released = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Reclaimed mid-spill: the fresh chain dies with its unowned ref
    // (freed unread), nothing to install.
    if (pos < base_) return;
    Slot& slot = SlotAtLocked(pos);
    slot.spilling = false;
    if (spilled == nullptr) return;  // spill store unavailable / skipped
    if (slot.page == nullptr) return;  // already migrated (defensive)
    // Install the disk tier BEFORE dropping the memory tier: a lock-free
    // reader that loses the page load takes the list lock and must find
    // the spilled chain there.
    slot.spilled = std::move(spilled);
    slot.Exchange(nullptr);
    --in_memory_;
    pages_retained_->Sub(1);
    released = true;
  }
  if (released) governor_->OnPagesReleased(1);
}

// ---------------------------------------------------------------------------
// SplReader
// ---------------------------------------------------------------------------

void SplReader::AdvanceTo(std::size_t next) {
  const std::size_t pos = cursor_;
  cursor_ = next;
  // The slot references were taken before this store, so reclamation
  // can never free a slot this reader is still copying from. seq_cst
  // (store) ordered BEFORE the seq_cst base_pub_ load below: the
  // frontier handoff against a concurrent reclaimer is store-buffering
  // shaped, and SC is what guarantees that either this probe fires or
  // the reclaimer's re-scan sees the new cursor (never neither).
  state_->cursor.store(next, std::memory_order_seq_cst);
  // Only the reader leaving the reclamation frontier can raise the min
  // cursor; everyone else would take the list lock for a no-op scan.
  if (pos == list_->base_pub_.load(std::memory_order_seq_cst) &&
      list_->sealed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(list_->mutex_);
    list_->MaybeReclaimLocked();
  }
}

std::size_t SplReader::NextBatch(std::size_t max_pages,
                                 std::vector<PageRef>* out) {
  if (max_pages == 0 || state_->cancelled.load(std::memory_order_relaxed)) {
    return 0;
  }
  for (;;) {
    const std::size_t pos = cursor_;
    std::size_t published = list_->published_.load(std::memory_order_acquire);
    if (pos < published) {
      const std::size_t want = std::min(published, pos + max_pages);
      std::size_t next = pos;
      while (next < want) {
        SharedPagesList::Slot& slot = SlotFor(next);
        PageRef page = slot.Load();
        if (page == nullptr) break;  // spilled: resolve on the next call
        out->push_back(std::move(page));
        ++next;
      }
      if (next > pos) {
        // One cursor publication (and at most one reclamation probe) for
        // the whole run — the lock-amortization batching buys.
        AdvanceTo(next);
        return next - pos;
      }
      PageRef page = SlowResolve(pos);
      if (page == nullptr) return 0;  // fault-back error or cancelled
      out->push_back(std::move(page));
      return 1;
    }
    if (list_->closed_.load(std::memory_order_acquire)) {
      published = list_->published_.load(std::memory_order_acquire);
      if (pos >= published) {
        list_->SealAtEnd();
        return 0;
      }
      continue;
    }
    if (!ParkUntilReady()) return 0;
  }
}

bool SplReader::ParkUntilReady() {
  // Spin-then-park: a reader chasing an actively appending producer is
  // typically handed the next page within microseconds — burning a short
  // bounded spin on the published counter (a plain cacheline read) is
  // far cheaper than a futex round trip for the reader AND the wake
  // sweep for the producer. On a single-core host spinning can only
  // delay the producer, so it is disabled there.
  static const int kSpinRounds =
      std::thread::hardware_concurrency() > 1 ? 1024 : 0;
  for (int round = 0; round < kSpinRounds; ++round) {
    if (state_->cancelled.load(std::memory_order_relaxed) ||
        cursor_ < list_->published_.load(std::memory_order_acquire) ||
        list_->closed_.load(std::memory_order_acquire)) {
      return !state_->cancelled.load(std::memory_order_relaxed);
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  // The query's stop (deadline / watchdog cancel) is checked before
  // committing to the park, so a reader stopped already is not counted
  // as parked, and then once per wait slice below.
  if (ctx_ != nullptr && ctx_->StopRequested()) {
    return FailStopped(ctx_->TerminalStatus());
  }
  list_->reader_parks_->Increment();
  // Span covers the futex wait only (the spin above is microseconds and
  // the common case records nothing).
  TraceSpan park_span("sharing", "spl.park", list_->trace_query_id_,
                      list_->trace_signature_);
  // Dekker-style handshake with the producer: the flag (and count) store
  // must be ordered before the predicate re-check, and the producer's
  // predicate store before its flag sweep — both sides seq_cst. Either
  // the producer sees us parked (and locks wait_mutex before notifying,
  // serializing with the wait below), or our re-check sees its update.
  state_->parked_since_micros.store(Trace::NowMicros(),
                                    std::memory_order_relaxed);
  state_->parked.store(true, std::memory_order_seq_cst);
  list_->parked_count_.fetch_add(1, std::memory_order_seq_cst);
  Status stop;
  {
    // The stop check reads query-context atomics only, so it nests no
    // lock under wait_mutex. error_ recording waits until wait_mutex is
    // released — Cancel() notifies through it.
    std::unique_lock<std::mutex> lock(state_->wait_mutex);
    stop = WaitUnlessStopped(ctx_.get(), state_->wait_cv, lock, [&] {
      return state_->cancelled.load(std::memory_order_seq_cst) ||
             cursor_ < list_->published_.load(std::memory_order_seq_cst) ||
             list_->closed_.load(std::memory_order_seq_cst);
    });
  }
  state_->parked.store(false, std::memory_order_relaxed);
  state_->parked_since_micros.store(0, std::memory_order_relaxed);
  list_->parked_count_.fetch_sub(1, std::memory_order_seq_cst);
  // Continue the chained wakeup BEFORE consuming anything: the producer
  // only seeded one notification, and the binary fan-out here is what
  // propagates it to every other frontier-parked reader.
  list_->WakeFrontierParked(2);
  if (!stop.ok()) return FailStopped(stop);
  return !state_->cancelled.load(std::memory_order_relaxed);
}

bool SplReader::FailStopped(const Status& st) {
  {
    std::lock_guard<std::mutex> lock(list_->mutex_);
    if (error_.ok()) error_ = st;
  }
  // Detach so the producer's early-stop contract and reclamation see this
  // reader gone; FinalStatus prefers the sticky error over "cancelled".
  Cancel();
  return false;
}

PageRef SplReader::SlowResolve(std::size_t pos) {
  list_->lock_waits_->Increment();
  std::unique_lock<std::mutex> lock(list_->mutex_);
  if (state_->cancelled.load(std::memory_order_relaxed)) return nullptr;
  SHARING_CHECK(pos >= list_->base_)
      << "reader cursor points at a reclaimed page";
  SharedPagesList::Slot& slot = list_->SlotAtLocked(pos);
  // The fast path lost the race against a concurrent spill install (or a
  // fault-back follows a genuine migration); under the lock the slot's
  // tier assignment is stable.
  PageRef page = slot.page;
  SpilledPageRef spilled = slot.spilled;
  auto governor = list_->governor_;
  // Peek the successor while still under the lock: if it has already
  // spilled, its fault-back can be scheduled now and overlap this page's
  // consumption (sequential-reader readahead; slots only ever migrate
  // memory -> spilled, so the ref stays authoritative once taken).
  SpilledPageRef readahead;
  if (governor != nullptr && governor->scheduler() != nullptr &&
      pos + 1 < list_->published_.load(std::memory_order_relaxed)) {
    SharedPagesList::Slot& next_slot = list_->SlotAtLocked(pos + 1);
    if (next_slot.page == nullptr) {
      readahead = next_slot.spilled;
    }
  }
  lock.unlock();
  // The local SpilledPageRef pins the disk chain even if reclamation
  // drops the slot after this advance.
  AdvanceTo(pos + 1);

  // This reader's previous readahead (if any) targeted exactly `pos`;
  // take it over before installing the next one.
  const std::size_t pf_pos = prefetch_pos_;
  IoTicketRef pf_ticket = std::move(prefetch_ticket_);
  auto pf_out = std::move(prefetch_out_);
  prefetch_pos_ = static_cast<std::size_t>(-1);
  if (readahead != nullptr) {
    auto out = std::make_shared<std::optional<StatusOr<PageRef>>>();
    if (IoTicketRef ticket =
            governor->UnspillPrefetch(std::move(readahead), out)) {
      prefetch_pos_ = pos + 1;
      prefetch_ticket_ = std::move(ticket);
      prefetch_out_ = std::move(out);
    }
  }
  if (page != nullptr) {
    if (pf_ticket != nullptr) pf_ticket->TryCancel();  // stale (never expected)
    return page;
  }
  SHARING_CHECK(spilled != nullptr) << "slot neither resident nor spilled";

  TraceSpan faultback_span("sharing", "spl.faultback", list_->trace_query_id_,
                           list_->trace_signature_);
  faultback_span.AddArg("pos", static_cast<int64_t>(pos));

  // Fault-back, outside the list lock. The read is served by the
  // matching readahead when one is in flight; otherwise it goes through
  // the scheduler's kFaultBack class (or synchronously when no scheduler
  // is configured).
  StatusOr<PageRef> page_or = Status::Internal("fault-back not attempted");
  bool resolved = false;
  if (pf_ticket != nullptr && pf_pos == pos) {
    pf_ticket->Wait();
    if (pf_out->has_value()) {
      page_or = std::move(**pf_out);
      resolved = true;
    }
    // A readahead dropped at scheduler shutdown resolves below — the
    // chain is still on the spill store.
  } else if (pf_ticket != nullptr) {
    pf_ticket->TryCancel();
  }
  if (!resolved) page_or = governor->UnspillBlocking(spilled);
  if (!page_or.ok()) {
    SHARING_LOG(Error) << "SPL fault-back failed: "
                       << page_or.status().ToString();
    lock.lock();
    if (error_.ok()) error_ = page_or.status();
    return nullptr;
  }
  return page_or.value();
}

Status SplReader::FinalStatus() const {
  std::lock_guard<std::mutex> lock(list_->mutex_);
  if (!error_.ok()) return error_;
  if (state_->cancelled.load(std::memory_order_relaxed)) {
    return Status::Aborted("reader cancelled");
  }
  return list_->final_;
}

void SplReader::Cancel() {
  if (state_->cancelled.exchange(true, std::memory_order_seq_cst)) return;
  {
    SharedPagesList::ReaderShard& shard = list_->shards_[shard_index_];
    SpinLatchGuard guard(shard.latch);
    std::erase(shard.readers, state_);
  }
  list_->active_readers_.fetch_sub(1, std::memory_order_acq_rel);
  // A cancel may arrive from another thread while this reader is parked
  // in NextBatch(): wake it so it observes the cancellation.
  {
    { std::lock_guard<std::mutex> sync(state_->wait_mutex); }
    state_->wait_cv.notify_all();
  }
  // The pages this reader was holding back become reclaimable; the last
  // reader of a finished list closes its window.
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(list_->mutex_);
    hook = list_->SealIfAbandonedLocked();
    list_->MaybeReclaimLocked();
  }
  if (hook) hook();
}

}  // namespace sharing
