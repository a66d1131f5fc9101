// Page-granular data flow interfaces.
//
// Operators read pages from PageSources and emit pages into PageSinks.
// QPipe's FIFO buffers (push model) and the Shared Pages List (pull model)
// both implement these interfaces, so operator code is agnostic to the
// sharing mechanism wired around it. Transports move pages in runs
// (NextBatch/PutBatch); the single-page Next/Put are built on them.
//
// A transport that blocks a reader is handed its query's ExecContext
// when the reader is created and waits through WaitUnlessStopped
// (exec/exec_context.h), so a deadline or cancel reaches a reader that
// is already parked.

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace sharing {

class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Pulls the next run of pages: appends up to `max_pages` pages to
  /// `out` and returns how many were delivered; 0 means end-of-stream.
  /// Blocks until at least one page is available, but never waits for
  /// more than one — whatever is immediately available rides along, so
  /// a transport pays its lock or publication cost once per run.
  virtual std::size_t NextBatch(std::size_t max_pages,
                                std::vector<PageRef>* out) = 0;

  /// One page (nullptr at end-of-stream), as a one-page NextBatch.
  /// Operators read page at a time through a BatchingSource, the one
  /// source that overrides this to serve pages from a buffered run.
  virtual PageRef Next() {
    std::vector<PageRef> one;
    if (NextBatch(1, &one) == 0) return nullptr;
    return std::move(one.front());
  }

  /// Terminal status of the stream; meaningful once a read reported
  /// end-of-stream (an aborted producer surfaces kAborted here).
  virtual Status FinalStatus() const = 0;

  /// Consumer-side abandonment: tells the producer this consumer will
  /// never read again, so it may stop early. Default: no-op.
  virtual void CancelConsumer() {}

  /// Reader-position contract: the number of pages this source has handed
  /// out so far. Sharing channels compare reader positions against pages
  /// produced to compute consumer lag (adaptive SP admission) and to
  /// reclaim pages every reader has passed (bounded pull-SP memory).
  /// Sources that cannot track a position return 0.
  virtual std::size_t PagesDelivered() const { return 0; }
};

class PageSink {
 public:
  virtual ~PageSink() = default;

  /// Emits a run of pages, in order. Returns false when no consumer can
  /// ever read them (all consumers cancelled) — possibly after a prefix
  /// was delivered — and the producer should stop early.
  virtual bool PutBatch(std::vector<PageRef> pages) = 0;

  /// Emits one page, as a one-page PutBatch. Operators write page at a
  /// time through a BatchingSink, the one sink that overrides this to
  /// buffer a run before handing it on.
  virtual bool Put(PageRef page) {
    std::vector<PageRef> one;
    one.push_back(std::move(page));
    return PutBatch(std::move(one));
  }

  /// Ends the stream. `final` is OK for normal completion or the error
  /// the consumer should observe.
  virtual void Close(Status final) = 0;
};

using PageSourceRef = std::shared_ptr<PageSource>;
using PageSinkRef = std::shared_ptr<PageSink>;

}  // namespace sharing
