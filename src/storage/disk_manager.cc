#include "storage/disk_manager.h"

#include <sys/prctl.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/fault.h"
#include "common/logging.h"

namespace sharing {

namespace {

/// Asks for 1ns timer slack on the calling thread so short sleeps wake on
/// time. A failure is logged once; the thread then keeps the default
/// slack, and its modeled reads overshoot without breaking anything.
bool SetTightTimerSlack() {
  if (prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) == 0) return true;
  static std::once_flag logged;
  std::call_once(logged, [err = errno] {
    SHARING_LOG(Warning) << "PR_SET_TIMERSLACK failed: " << std::strerror(err);
  });
  return false;
}

}  // namespace

DiskManager::DiskManager(DiskOptions options, MetricsRegistry* metrics)
    : options_(std::move(options)),
      reads_counter_(metrics->GetCounter(metrics::kDiskPageReads)),
      writes_counter_(metrics->GetCounter(metrics::kDiskPageWrites)),
      read_latency_micros_(options_.read_latency_micros),
      read_bandwidth_mib_(options_.read_bandwidth_mib) {
  if (!options_.path.empty()) {
    file_ = std::fopen(options_.path.c_str(), "wb+");
    SHARING_CHECK(file_ != nullptr)
        << "cannot open backing file " << options_.path;
  }
}

DiskManager::~DiskManager() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(options_.path.c_str());
  }
}

PageId DiskManager::AllocatePage() {
  if (SHARING_FAULT_POINT(fault_points::kDiskEnospc)) {
    return kInvalidPageId;  // emulated out-of-space: no page to hand out
  }
  {
    std::lock_guard<std::mutex> lock(free_mutex_);
    if (!free_list_.empty()) {
      PageId id = free_list_.back();
      free_list_.pop_back();
      // Recycled pages honor the zeroed-page contract: the previous
      // tenant's bytes must never be readable through a fresh id. The
      // file store defers the zeroing to read time so the spill hot path
      // (which always writes before reading) never pays an extra write.
      if (file_ == nullptr) {
        std::lock_guard<std::mutex> mem_lock(mem_mutex_);
        std::memset(mem_pages_[id].get(), 0, kPageBytes);
      } else {
        zero_on_read_.insert(id);
        zero_on_read_nonempty_.store(true, std::memory_order_release);
      }
      return id;
    }
  }
  PageId id = next_page_.fetch_add(1, std::memory_order_relaxed);
  if (file_ == nullptr) {
    std::lock_guard<std::mutex> lock(mem_mutex_);
    if (mem_pages_.size() <= id) mem_pages_.resize(id + 1);
    mem_pages_[id] = std::make_unique<uint8_t[]>(kPageBytes);
    std::memset(mem_pages_[id].get(), 0, kPageBytes);
  }
  return id;
}

void DiskManager::FreePage(PageId id) {
  SHARING_CHECK(id < next_page_.load(std::memory_order_acquire))
      << "free of unallocated page " << id;
  std::lock_guard<std::mutex> lock(free_mutex_);
  free_list_.push_back(id);
}

void DiskManager::ChargeReadLatency(std::size_t bytes) {
  uint32_t seek = read_latency_micros_.load(std::memory_order_relaxed);
  uint32_t bw = read_bandwidth_mib_.load(std::memory_order_relaxed);
  uint64_t micros = seek;
  if (bw > 0) {
    micros += (static_cast<uint64_t>(bytes) * 1000000ull) /
              (static_cast<uint64_t>(bw) * 1024ull * 1024ull);
  }
  if (micros == 0) return;
  // A modeled read sleeps, as a real one blocks: it holds no core. Linux's
  // default 50us timer slack would stretch a 55us model toward 2x, so
  // each thread that charges the model asks for 1ns slack, once.
  [[maybe_unused]] thread_local const bool slack = SetTightTimerSlack();
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

Status DiskManager::ReadPage(PageId id, uint8_t* out) {
  if (id >= next_page_.load(std::memory_order_acquire)) {
    return Status::OutOfRange("read of unallocated page " +
                              std::to_string(id));
  }
  if (SHARING_FAULT_POINT(fault_points::kDiskRead)) {
    return Status::IoError("injected read fault for page " +
                           std::to_string(id));
  }
  if (file_ != nullptr &&
      zero_on_read_nonempty_.load(std::memory_order_acquire)) {
    // A recycled page that was never rewritten is all zeros by contract;
    // serve it without disk I/O (and without the latency model — there
    // is nothing to transfer). Stores that never recycle skip this on
    // the emptiness hint alone.
    std::lock_guard<std::mutex> lock(free_mutex_);
    if (zero_on_read_.contains(id)) {
      std::memset(out, 0, kPageBytes);
      return Status::OK();
    }
  }
  ChargeReadLatency(kPageBytes);
  if (file_ == nullptr) {
    const uint8_t* src;
    {
      std::lock_guard<std::mutex> lock(mem_mutex_);
      src = mem_pages_[id].get();
    }
    std::memcpy(out, src, kPageBytes);
  } else {
    std::lock_guard<std::mutex> lock(file_mutex_);
    if (std::fseek(file_, static_cast<long>(id * kPageBytes), SEEK_SET) != 0) {
      return Status::IoError("fseek failed for page " + std::to_string(id));
    }
    if (std::fread(out, 1, kPageBytes, file_) != kPageBytes) {
      return Status::IoError("short read for page " + std::to_string(id));
    }
  }
  reads_counter_->Increment();
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const uint8_t* data) {
  if (id >= next_page_.load(std::memory_order_acquire)) {
    return Status::OutOfRange("write of unallocated page " +
                              std::to_string(id));
  }
  if (SHARING_FAULT_POINT(fault_points::kDiskWrite)) {
    return Status::IoError("injected write fault for page " +
                           std::to_string(id));
  }
  if (SHARING_FAULT_POINT(fault_points::kDiskWriteShort)) {
    // A partial write that reached the device but not in full — callers
    // must treat it exactly like the real short-fwrite path below.
    return Status::IoError("injected short write for page " +
                           std::to_string(id) + " (wrote " +
                           std::to_string(kPageBytes / 2) + "/" +
                           std::to_string(kPageBytes) + " bytes)");
  }
  if (SHARING_FAULT_POINT(fault_points::kDiskEnospc)) {
    return Status::ResourceExhausted("injected ENOSPC writing page " +
                                     std::to_string(id));
  }
  if (options_.write_latency_micros > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.write_latency_micros));
  }
  if (file_ == nullptr) {
    uint8_t* dst;
    {
      std::lock_guard<std::mutex> lock(mem_mutex_);
      dst = mem_pages_[id].get();
    }
    std::memcpy(dst, data, kPageBytes);
  } else {
    if (zero_on_read_nonempty_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(free_mutex_);
      zero_on_read_.erase(id);  // real bytes supersede the deferred zero
      if (zero_on_read_.empty()) {
        zero_on_read_nonempty_.store(false, std::memory_order_release);
      }
    }
    std::lock_guard<std::mutex> lock(file_mutex_);
    if (std::fseek(file_, static_cast<long>(id * kPageBytes), SEEK_SET) != 0) {
      return Status::IoError("fseek failed for page " + std::to_string(id));
    }
    if (std::fwrite(data, 1, kPageBytes, file_) != kPageBytes) {
      return Status::IoError("short write for page " + std::to_string(id));
    }
  }
  writes_counter_->Increment();
  return Status::OK();
}

IoTicketRef DiskManager::ReadPageAsync(IoScheduler* scheduler,
                                       IoPriority priority, PageId id,
                                       uint8_t* out) {
  SHARING_CHECK(scheduler != nullptr);
  return scheduler->Submit(priority, kPageBytes,
                           [this, id, out] { return ReadPage(id, out); });
}

IoTicketRef DiskManager::WritePageAsync(IoScheduler* scheduler,
                                        IoPriority priority, PageId id,
                                        std::vector<uint8_t> data) {
  SHARING_CHECK(scheduler != nullptr);
  SHARING_CHECK(data.size() == kPageBytes);
  return scheduler->Submit(
      priority, kPageBytes,
      [this, id, data = std::move(data)] { return WritePage(id, data.data()); });
}

void DiskManager::SetLatencyModel(uint32_t read_latency_micros,
                                  uint32_t read_bandwidth_mib) {
  read_latency_micros_.store(read_latency_micros, std::memory_order_relaxed);
  read_bandwidth_mib_.store(read_bandwidth_mib, std::memory_order_relaxed);
}

}  // namespace sharing
