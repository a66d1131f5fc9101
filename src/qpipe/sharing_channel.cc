#include "qpipe/sharing_channel.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"

namespace sharing {

namespace {

/// The `sharing.append` fault point, shared by both transports: a fired
/// check poisons the channel (it closes with the injected error, which
/// every attached satellite observes as its final status) and the put
/// reports failure to the host. This is the "host crashed mid-production"
/// drill the chaos harness runs — satellites must recover by re-running
/// unshared (see stage.cc), never by serving the truncated result.
Status InjectedAppendFault() {
  return Status::IoError("injected sharing append fault");
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared production-time lag sampling: every few pages the producer
/// records how far the slowest reader trails it. Callers guard `max`
/// with their own mutex. One copy of the policy so push and pull
/// measure the same signal the adaptive admission cost model is
/// calibrated to.
struct LagSampler {
  static constexpr std::size_t kEvery = 8;

  /// Did the production count cross a sampling boundary going from
  /// `prev` to `now`? (A put advances by a whole run of pages, so the
  /// check is a window crossing, not `now % kEvery == 0`.)
  static bool ShouldSample(std::size_t prev, std::size_t now) {
    return now / kEvery > prev / kEvery;
  }

  std::size_t max = 0;

  void Update(std::size_t produced, std::size_t min_reader_position) {
    std::size_t lag =
        produced > min_reader_position ? produced - min_reader_position : 0;
    max = std::max(max, lag);
  }
};

// ---------------------------------------------------------------------------
// PushChannel: the push-model tee. The first attached reader is the host's
// own consumer and receives the original page; every later reader is a
// satellite fed a deep copy. All copies run in the producer thread — this
// loop is the serialization point the paper's pull model removes. Each
// put hands every satellite FIFO the whole run under one lock
// acquisition (FifoBuffer::PutBatch) instead of paying it per page.
// ---------------------------------------------------------------------------

class PushChannel final : public SharingChannel {
 public:
  explicit PushChannel(SharingChannelOptions options)
      : options_(std::move(options)),
        pages_copied_(options_.metrics->GetCounter(metrics::kSpPagesCopied)),
        bytes_copied_(options_.metrics->GetCounter(metrics::kSpBytesCopied)) {}

  PageSourceRef AttachReader(ExecContextRef ctx) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!window_open_ || closed_) return nullptr;
    auto fifo =
        std::make_shared<FifoBuffer>(options_.fifo_capacity, std::move(ctx));
    if (host_ == nullptr) host_ = fifo.get();  // first reader = host's own
    readers_.push_back(fifo);
    ++ever_attached_;
    TRACE_EVENT("sharing", "push.attach", options_.query_id,
                options_.signature);
    return fifo;
  }

  bool PutBatch(std::vector<PageRef> pages) override {
    if (pages.empty()) {
      std::lock_guard<std::mutex> lock(mutex_);
      return !closed_;
    }
    if (SHARING_FAULT_POINT(fault_points::kSharingAppend)) {
      Close(InjectedAppendFault());
      return false;
    }
    TraceSpan span("sharing", "push.put", options_.query_id,
                   options_.signature);
    std::vector<std::shared_ptr<FifoBuffer>> readers;
    const FifoBuffer* host;
    std::size_t produced;
    std::size_t prev_produced;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      window_open_ = false;  // first emission closes the attach window
      prev_produced = pages_produced_;
      pages_produced_ += pages.size();
      produced = pages_produced_;
      readers = readers_;
      host = host_;
    }
    bool any = false;
    std::vector<const FifoBuffer*> dead;
    for (std::size_t i = 0; i < readers.size(); ++i) {
      std::vector<PageRef> batch;
      batch.reserve(pages.size());
      if (readers[i].get() == host) {
        // The host's own consumer reads the originals.
        batch = pages;
      } else {
        for (const PageRef& page : pages) {
          batch.push_back(CopyForSatellite(*page));
        }
      }
      if (readers[i]->PutBatch(std::move(batch))) {
        any = true;
      } else {
        dead.push_back(readers[i].get());
      }
    }
    FinishPut(readers, dead, prev_produced, produced);
    span.AddArg("pages", static_cast<int64_t>(produced - prev_produced));
    span.AddArg("readers", static_cast<int64_t>(readers.size()));
    return any;
  }

  void Close(Status final) override {
    std::vector<std::shared_ptr<FifoBuffer>> readers;
    SessionView closing;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      closed_ = true;
      window_open_ = false;
      closing = ViewLocked();
      readers.swap(readers_);
    }
    for (const auto& reader : readers) reader->Close(final);
    if (options_.on_close) options_.on_close(closing);
  }

  SessionView Introspect() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return ViewLocked();
  }

  SpMode mode() const override { return SpMode::kPush; }

 private:
  /// Copies between wall-timed samples fed to on_copy_cost.
  static constexpr std::size_t kCopySampleEvery = 32;

  /// One satellite deep copy — the defining cost of push-based SP
  /// (charged even after the host cancels: the model forwards). One
  /// copy in every kCopySampleEvery is wall-timed to feed the cost
  /// model's measured ns-per-page (single producer, so the countdown
  /// needs no lock).
  PageRef CopyForSatellite(const RowPage& page) {
    const bool sample =
        options_.on_copy_cost != nullptr && copies_until_sample_ == 0;
    const int64_t start = sample ? NowNanos() : 0;
    PageRef copy = std::make_shared<RowPage>(page);
    if (sample) {
      options_.on_copy_cost(static_cast<double>(NowNanos() - start));
      copies_until_sample_ = kCopySampleEvery;
    } else if (copies_until_sample_ > 0) {
      --copies_until_sample_;
    }
    pages_copied_->Increment();
    bytes_copied_->Add(static_cast<int64_t>(page.data_bytes()));
    return copy;
  }

  /// The session view. Requires mutex_ held; reads each FIFO's delivery
  /// count under its own lock (channel mutex before FIFO mutex).
  SessionView ViewLocked() const {
    SessionView view;
    view.mode = SpMode::kPush;
    view.published = pages_produced_;
    view.ever_attached = ever_attached_;
    view.active_readers = readers_.size();
    view.max_consumer_lag = lag_.max;
    view.attach_window_open = window_open_ && !closed_;
    view.closed = closed_;
    view.min_reader_position = readers_.empty() ? 0 : pages_produced_;
    for (const auto& reader : readers_) {
      SessionView::Reader info;
      info.position = reader->PagesDelivered();
      view.min_reader_position =
          std::min(view.min_reader_position, info.position);
      view.readers.push_back(info);
    }
    return view;
  }

  /// PutBatch epilogue: prune readers that reported a dead
  /// consumer, and take the production-time lag sample when the batch
  /// crossed a sampling boundary — from the slowest *surviving* reader
  /// (a dead reader's frozen position would inflate the signal the
  /// adaptive policy consumes).
  void FinishPut(const std::vector<std::shared_ptr<FifoBuffer>>& readers,
                 const std::vector<const FifoBuffer*>& dead,
                 std::size_t prev_produced, std::size_t produced) {
    if (!dead.empty()) {
      std::lock_guard<std::mutex> lock(mutex_);
      std::erase_if(readers_, [&](const std::shared_ptr<FifoBuffer>& r) {
        return std::find(dead.begin(), dead.end(), r.get()) != dead.end();
      });
      if (std::find(dead.begin(), dead.end(), host_) != dead.end()) {
        host_ = nullptr;  // never compare against a freed FIFO
      }
    }
    if (LagSampler::ShouldSample(prev_produced, produced)) {
      std::size_t min_delivered = produced;
      for (const auto& reader : readers) {
        if (std::find(dead.begin(), dead.end(), reader.get()) != dead.end()) {
          continue;
        }
        min_delivered = std::min(min_delivered, reader->PagesDelivered());
      }
      std::lock_guard<std::mutex> lock(mutex_);
      lag_.Update(produced, min_delivered);
    }
  }

  SharingChannelOptions options_;
  Counter* pages_copied_;
  Counter* bytes_copied_;

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<FifoBuffer>> readers_;
  LagSampler lag_;
  /// The host's own consumer (first attached); identity only, owned by
  /// readers_. Satellites are fed copies, the host the original.
  const FifoBuffer* host_ = nullptr;
  std::size_t ever_attached_ = 0;
  std::size_t pages_produced_ = 0;
  /// Producer-thread-only countdown to the next timed copy.
  std::size_t copies_until_sample_ = 0;
  bool window_open_ = true;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// PullChannel: the Shared Pages List behind the channel interface. Close
// seals the SPL's attach window, which both ends the session (on_close
// deregisters it) and arms page reclamation. Finish leaves the window
// open until a reader has read the result to its end (SharedPagesList::
// Finish), and on_close runs at that seal. Each put publishes the whole
// run with one SPL bookkeeping pass (AppendBatch).
// ---------------------------------------------------------------------------

class PullChannel final : public SharingChannel {
 public:
  explicit PullChannel(SharingChannelOptions options)
      : options_(std::move(options)),
        spl_(SharedPagesList::Create(options_.metrics, options_.governor)) {
    // The SPL emits its own park/fault-back/attach trace records; give it
    // the session's correlation ids so they land under the host query.
    spl_->SetTraceIdentity(options_.query_id, options_.signature);
  }

  PageSourceRef AttachReader(ExecContextRef ctx) override {
    if (options_.on_attach_cost == nullptr) {
      return spl_->AttachReader(std::move(ctx));
    }
    const int64_t start = NowNanos();
    auto reader = spl_->AttachReader(std::move(ctx));
    if (reader != nullptr) {
      options_.on_attach_cost(static_cast<double>(NowNanos() - start));
    }
    return reader;
  }

  bool PutBatch(std::vector<PageRef> pages) override {
    if (pages.empty()) return !spl_->closed();
    if (SHARING_FAULT_POINT(fault_points::kSharingAppend)) {
      Close(InjectedAppendFault());
      return false;
    }
    const std::size_t count = pages.size();
    TraceSpan span("sharing", "pull.put", options_.query_id,
                   options_.signature);
    span.AddArg("pages", static_cast<int64_t>(count));
    std::size_t produced = spl_->AppendBatch(std::move(pages));
    if (produced == 0) return false;
    SampleLag(produced - count, produced);
    return true;
  }

  void Close(Status final) override {
    if (!MarkClosed()) return;
    // Seal strictly before closing: the moment a reader can observe
    // end-of-stream (and its query returns), no new consumer may attach
    // to this finished session — otherwise a later query could be served
    // the stale cached result through the closing race.
    spl_->SealAttachWindow();
    spl_->Close(std::move(final));
    if (options_.on_close) options_.on_close(Introspect());
  }

  void Finish(Status final) override {
    if (!final.ok()) {
      Close(std::move(final));
      return;
    }
    if (!MarkClosed()) return;
    // The SPL seals itself before any reader can return end-of-stream,
    // so the closing race above cannot happen; until then a twin that
    // arrives after a fast host finished still shares the result. The
    // seal may run on a reader's thread after this channel is gone, so
    // the hook holds only what the view needs.
    spl_->Finish([spl = std::weak_ptr<SharedPagesList>(spl_), lag = lag_,
                  on_close = options_.on_close] {
      auto list = spl.lock();
      if (list != nullptr && on_close) on_close(ViewOf(*list, *lag));
    });
  }

  SessionView Introspect() const override { return ViewOf(*spl_, *lag_); }

  SpMode mode() const override { return SpMode::kPull; }

 private:
  /// The production-time lag samples, shared with the Finish hook.
  struct Lag {
    std::mutex mutex;
    LagSampler sampler;
  };

  /// The SPL's view plus the channel's mode and production-time lag.
  static SessionView ViewOf(const SharedPagesList& spl, Lag& lag) {
    SessionView view = spl.View();
    view.mode = SpMode::kPull;
    std::lock_guard<std::mutex> lock(lag.mutex);
    view.max_consumer_lag = lag.sampler.max;
    return view;
  }

  /// True for the first Close/Finish only.
  bool MarkClosed() {
    std::lock_guard<std::mutex> lock(lag_->mutex);
    if (closed_) return false;
    closed_ = true;
    return true;
  }

  void SampleLag(std::size_t prev_produced, std::size_t produced) {
    if (!LagSampler::ShouldSample(prev_produced, produced)) return;
    std::size_t min_pos = spl_->MinReaderPosition();
    std::lock_guard<std::mutex> lock(lag_->mutex);
    lag_->sampler.Update(produced, min_pos);
  }

  SharingChannelOptions options_;
  std::shared_ptr<SharedPagesList> spl_;
  std::shared_ptr<Lag> lag_ = std::make_shared<Lag>();
  bool closed_ = false;  // guarded by lag_->mutex
};

}  // namespace

SharingChannelRef MakeSharingChannel(SpMode mode,
                                     SharingChannelOptions options) {
  switch (mode) {
    case SpMode::kPush:
      return std::make_shared<PushChannel>(std::move(options));
    case SpMode::kPull:
      return std::make_shared<PullChannel>(std::move(options));
    case SpMode::kOff:
    case SpMode::kAdaptive:
      break;
  }
  SHARING_CHECK(false) << "no sharing channel for mode "
                       << SpModeToString(mode);
  return nullptr;
}

}  // namespace sharing
