#include "common/stats_reporter.h"

#include "common/logging.h"
#include "common/metrics_format.h"

namespace sharing {

StatsReporter::StatsReporter(Options options)
    : options_(std::move(options)), start_(std::chrono::steady_clock::now()) {
  if (!options_.sink && !options_.path.empty()) {
    file_ = std::fopen(options_.path.c_str(), "a");
    if (file_ == nullptr) {
      SHARING_LOG(Warning) << "stats reporter: cannot open " << options_.path
                           << ", falling back to stderr";
    }
  }
  thread_ = std::thread([this] { Loop(); });
}

StatsReporter::~StatsReporter() {
  Stop();
  if (file_ != nullptr) std::fclose(file_);
}

void StatsReporter::EmitNow() {
  const int64_t uptime_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  Emit(MetricsJsonLine(options_.metrics->Snapshot(), uptime_ms));
}

void StatsReporter::Emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.sink) {
    options_.sink(line);
  } else {
    FILE* out = file_ != nullptr ? file_ : stderr;
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
    std::fflush(out);
  }
  ++lines_emitted_;
}

int64_t StatsReporter::lines_emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_emitted_;
}

void StatsReporter::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (options_.period_ms == 0) {
      cv_.wait(lock, [&] { return stop_; });
    } else {
      cv_.wait_for(lock, std::chrono::milliseconds(options_.period_ms),
                   [&] { return stop_; });
    }
    if (stop_) return;
    lock.unlock();
    EmitNow();
    lock.lock();
  }
}

void StatsReporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      // Already stopped; the final snapshot was emitted then.
      if (!thread_.joinable()) return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  EmitNow();  // the final snapshot: short runs still export their totals
}

}  // namespace sharing
