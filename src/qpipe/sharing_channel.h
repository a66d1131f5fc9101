// SharingChannel: the unified transport behind Simultaneous Pipelining.
//
// A channel is the fan-out point between one producing host packet and any
// number of consuming queries. The producer side is a plain PageSink
// (PutBatch/Close); consumers attach through AttachReader(), which either
// succeeds (the consumer becomes an SP satellite fed from the channel) or
// returns nullptr (the attach window has closed — the caller must execute
// its own packet). The two implementations embody the paper's two SP
// models:
//
//  * push (PushChannel): the classic QPipe tee. Every reader owns a FIFO;
//    the host's put copies each page into every satellite FIFO, serializing
//    all copies through the producer thread. The attach window closes at
//    the first emitted page — a late satellite would miss results.
//  * pull (PullChannel): the paper's Shared Pages List. Pages are appended
//    once and readers share references at their own pace; the attach
//    window stays open for the host's whole production — and, when the
//    stage finishes the session (Finish), until a reader has read the
//    result to its end — and pages are reclaimed once every reader has
//    passed them. With an SpBudgetGovernor
//    configured, retention beyond the engine-wide budget overflows to a
//    spill file instead of RAM (bounded memory — see shared_pages_list.h,
//    sp_budget_governor.h and DESIGN.md).
//
// Stage keeps a single signature -> SharingChannel registry, so admission
// logic (including the adaptive per-packet policy) is independent of which
// transport a session uses.

#pragma once

#include <functional>
#include <memory>

#include "common/metrics.h"
#include "exec/page_stream.h"
#include "qpipe/fifo_buffer.h"
#include "qpipe/shared_pages_list.h"
#include "qpipe/sp_budget_governor.h"
#include "qpipe/sp_mode.h"

namespace sharing {

class SharingChannel : public PageSink {
 public:
  /// Live statistics used by the adaptive admission policy and surfaced to
  /// the on_close hook when the producer finishes.
  struct Stats {
    std::size_t readers_attached = 0;  // ever, including the host's own
    std::size_t readers_active = 0;
    std::size_t pages_produced = 0;
    /// Largest (pages produced - slowest reader position) sampled *during
    /// production*. Sampling at put time measures consumer slowness while
    /// the producer is still running — the signal the adaptive policy
    /// wants — rather than the undrained queue depth a close-time sample
    /// would report for any non-trivial result.
    std::size_t max_consumer_lag = 0;
    bool attach_window_open = false;
  };

  /// One consumer's observable state within the channel.
  struct ReaderIntrospection {
    /// Pages this reader has consumed.
    std::size_t position = 0;
    /// Pull readers only: currently blocked waiting for publication,
    /// and for how long (0 otherwise). Push FIFOs block inside pop and
    /// do not expose a parking flag.
    bool parked = false;
    int64_t parked_for_micros = 0;
    bool cancelled = false;
  };

  /// The admin server's deep view of one live sharing session: the
  /// summary Stats plus per-reader cursors and — for pull channels —
  /// the SPL's resident-vs-spilled retention split and frontiers.
  /// Implementations ride their existing synchronization (channel
  /// mutex / SPL shard latches + atomics); never called on a hot path.
  struct Introspection {
    SpMode mode = SpMode::kOff;
    Stats stats;
    /// Pages ever published (== stats.pages_produced).
    std::size_t published = 0;
    /// Retained pages split by tier (pull channels; push channels keep
    /// no history, both stay 0).
    std::size_t resident_pages = 0;
    std::size_t spilled_pages = 0;
    /// Pages reclaimed behind every reader (pull only).
    std::size_t reclaimed_pages = 0;
    std::size_t min_reader_position = 0;
    bool closed = false;
    /// Pull only: attach window sealed (no future satellite).
    bool sealed = false;
    std::vector<ReaderIntrospection> readers;
  };

  /// Attaches a new consumer. Returns nullptr when the attach window has
  /// closed (push: host already emitted; pull: producer closed, or
  /// finished and read to its end) or the host aborted.
  virtual PageSourceRef AttachReader() = 0;

  /// The host's end of production, as the stage delivers it: Close for a
  /// push channel or a non-OK status. A pull session finished OK stays
  /// attachable until a reader has read it to the end or every reader
  /// has left, so its window does not hang on how fast the host
  /// produced; on_close runs then.
  virtual void Finish(Status final) { Close(std::move(final)); }

  virtual Stats GetStats() const = 0;

  /// Deep state for the admin surface (see Introspection).
  virtual Introspection Introspect() const = 0;

  /// Which SP model this channel implements (kPush or kPull).
  virtual SpMode mode() const = 0;
};

using SharingChannelRef = std::shared_ptr<SharingChannel>;

struct SharingChannelOptions {
  /// Per-reader FIFO capacity (push channels only).
  std::size_t fifo_capacity = FifoBuffer::kDefaultCapacity;

  MetricsRegistry* metrics = &MetricsRegistry::Global();

  /// Trace correlation (common/trace.h): the host query's id and the
  /// session signature, stamped on the channel's put spans and attach
  /// instants so a Chrome-trace viewer can tie transport activity back
  /// to the query that hosted the session. 0 = not traced/unknown.
  uint64_t query_id = 0;
  uint64_t signature = 0;

  /// Engine-wide SP memory governor (pull channels only). When set and
  /// enabled, the channel's SPL spills retained pages to the governor's
  /// temp store whenever the engine-wide in-memory SP page count exceeds
  /// the budget, instead of letting a slow reader pin the host's whole
  /// result in RAM. Null: retention bounded only by reclamation (PR 1
  /// behavior).
  std::shared_ptr<SpBudgetGovernor> governor;

  /// Invoked exactly once, when the session's attach window closes: after
  /// Close has propagated to every reader, or for a pull session ended by
  /// Finish, at its seal (possibly on a reader's thread, after the
  /// channel is gone). Receives the channel's closing stats (satellite
  /// count, pages produced, lag) so the stage can feed its adaptive
  /// policy and deregister the session. Called without channel locks
  /// held.
  std::function<void(const SharingChannel::Stats&)> on_close;

  /// Online cost measurement hooks (the adaptive cost model's EWMA feed;
  /// see SharingCostModel::RecordCopyCost/RecordAttachCost). Both are
  /// invoked from hot paths — push channels sample one deep copy every
  /// few dozen (nanoseconds per copied page); pull channels time every
  /// AttachReader (nanoseconds per attach). Leave unset to skip the
  /// measurement entirely.
  std::function<void(double copy_ns_per_page)> on_copy_cost;
  std::function<void(double attach_ns)> on_attach_cost;
};

/// Builds a channel for `mode`, which must be kPush or kPull.
SharingChannelRef MakeSharingChannel(SpMode mode, SharingChannelOptions options);

}  // namespace sharing
