#include "server/watchdog.h"

#include <chrono>

#include "common/trace.h"
#include "qpipe/sp_mode.h"

namespace sharing {

Watchdog::Watchdog(Options options, EngineInspector inspector)
    : options_(options),
      inspector_(std::move(inspector)),
      ticks_counter_(inspector_.metrics->GetCounter(metrics::kWatchdogTicks)),
      queries_over_slo_(
          inspector_.metrics->GetCounter(metrics::kWatchdogQueriesOverSlo)),
      parked_readers_(
          inspector_.metrics->GetCounter(metrics::kWatchdogParkedReaders)),
      io_saturation_(
          inspector_.metrics->GetCounter(metrics::kWatchdogIoSaturation)),
      spill_thrash_(
          inspector_.metrics->GetCounter(metrics::kWatchdogSpillThrash)),
      unhealthy_(inspector_.metrics->GetGauge(metrics::kWatchdogUnhealthy)),
      warn_query_(static_cast<int64_t>(options.warn_interval_ms)),
      warn_parked_(static_cast<int64_t>(options.warn_interval_ms)),
      warn_io_(static_cast<int64_t>(options.warn_interval_ms)),
      warn_thrash_(static_cast<int64_t>(options.warn_interval_ms)) {
  SHARING_CHECK(inspector_.metrics != nullptr);
}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Start() {
  if (options_.period_ms == 0 || thread_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void Watchdog::Stop() {
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    TickNow();
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(options_.period_ms),
                      [&] { return stop_.load(std::memory_order_acquire); });
  }
}

void Watchdog::TickNow() {
  ticks_counter_->Increment();
  std::vector<std::string> reasons;

  // Condition 1: queries over the age SLO.
  if (inspector_.queries) {
    const int64_t slo_micros =
        static_cast<int64_t>(options_.query_slo_ms) * 1000;
    for (const auto& query : inspector_.queries()) {
      if (query.cancelled || query.age_micros < slo_micros) continue;
      queries_over_slo_->Increment();
      reasons.push_back("query " + std::to_string(query.query_id) +
                        " in flight " +
                        std::to_string(query.age_micros / 1000) + "ms (slo " +
                        std::to_string(options_.query_slo_ms) + "ms) at " +
                        query.stage);
      if (warn_query_.Allow()) {
        SHARING_LOG_QID(Warning, query.query_id)
            << "watchdog: query over SLO: in flight "
            << query.age_micros / 1000 << "ms (slo " << options_.query_slo_ms
            << "ms), stage=" << query.stage
            << ", pages_delivered=" << query.pages_delivered
            << " [suppressed " << warn_query_.suppressed() << "]";
      }
    }
  }

  // Condition 2: readers parked past the threshold on unclosed channels.
  if (inspector_.channels) {
    const int64_t parked_micros =
        static_cast<int64_t>(options_.parked_reader_ms) * 1000;
    for (const auto& channel : inspector_.channels()) {
      const auto& info = channel.info;
      if (info.closed) continue;
      for (const auto& reader : info.readers) {
        if (!reader.parked || reader.cancelled ||
            reader.parked_for_micros < parked_micros) {
          continue;
        }
        parked_readers_->Increment();
        // Published past the cursor means pages exist the reader never
        // woke for (a wakeup bug); otherwise the producer is wedged.
        const bool behind = info.published > reader.position;
        reasons.push_back(
            "reader parked " +
            std::to_string(reader.parked_for_micros / 1000) + "ms on " +
            channel.stage + " channel" +
            (behind ? " with unconsumed pages" : " (producer idle)"));
        if (warn_parked_.Allow()) {
          SHARING_LOG(Warning)
              << "watchdog: reader parked "
              << reader.parked_for_micros / 1000 << "ms on " << channel.stage
              << " channel (sig=" << channel.signature
              << ", mode=" << SpModeToString(info.mode)
              << ", cursor=" << reader.position
              << ", published=" << info.published
              << (behind ? ", UNCONSUMED PAGES EXIST — possible lost wakeup"
                         : ", producer idle")
              << ") [suppressed " << warn_parked_.suppressed() << "]";
        }
      }
    }
  }

  // Condition 3: I/O priority-class queue saturation.
  if (inspector_.io_queue_depths && options_.io_queue_depth_limit > 0) {
    const std::vector<std::size_t> depths = inspector_.io_queue_depths();
    for (std::size_t cls = 0; cls < depths.size(); ++cls) {
      if (depths[cls] < options_.io_queue_depth_limit) continue;
      io_saturation_->Increment();
      const std::string_view name =
          cls < kIoPriorityClasses
              ? IoPriorityToString(static_cast<IoPriority>(cls))
              : "?";
      reasons.push_back("io class " + std::string(name) + " queue depth " +
                        std::to_string(depths[cls]) + " >= " +
                        std::to_string(options_.io_queue_depth_limit));
      if (warn_io_.Allow()) {
        SHARING_LOG(Warning)
            << "watchdog: io class " << name << " saturated: queue depth "
            << depths[cls] << " >= " << options_.io_queue_depth_limit
            << " [suppressed " << warn_io_.suppressed() << "]";
      }
    }
  }

  // Condition 4: spill thrash — the same tick both spilled and faulted
  // back more than the threshold's worth of pages.
  if (options_.spill_thrash_pages > 0) {
    const int64_t spilled =
        inspector_.metrics->GetCounter(metrics::kSpPagesSpilled)->Get();
    const int64_t unspilled =
        inspector_.metrics->GetCounter(metrics::kSpUnspillReads)->Get();
    if (have_baseline_) {
      const int64_t d_spill = spilled - last_pages_spilled_;
      const int64_t d_unspill = unspilled - last_unspill_reads_;
      if (d_spill > 0 && d_unspill > 0 &&
          d_spill + d_unspill >=
              static_cast<int64_t>(options_.spill_thrash_pages)) {
        spill_thrash_->Increment();
        reasons.push_back("spill thrash: " + std::to_string(d_spill) +
                          " spilled and " + std::to_string(d_unspill) +
                          " faulted back in one period");
        if (warn_thrash_.Allow()) {
          SHARING_LOG(Warning)
              << "watchdog: spill thrash: " << d_spill << " pages spilled and "
              << d_unspill
              << " faulted back within one period — SP budget likely below "
                 "the working set [suppressed "
              << warn_thrash_.suppressed() << "]";
        }
      }
    }
    last_pages_spilled_ = spilled;
    last_unspill_reads_ = unspilled;
    have_baseline_ = true;
  }

  // Degraded-but-running detail: a latched-off spill tier does not flip
  // the verdict to 503 (queries still finish, just without a memory
  // budget) but the /healthz body carries the causing status.
  std::vector<std::string> details;
  if (inspector_.spill_health) {
    const Status spill = inspector_.spill_health();
    if (!spill.ok()) {
      details.push_back("sp spill tier disabled: " + spill.ToString());
    }
  }

  unhealthy_->Set(reasons.empty() ? 0 : 1);
  std::lock_guard<std::mutex> lock(health_mutex_);
  health_.healthy = reasons.empty();
  health_.ticks += 1;
  health_.reasons = std::move(reasons);
  health_.details = std::move(details);
}

Watchdog::Health Watchdog::GetHealth() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return health_;
}

}  // namespace sharing
