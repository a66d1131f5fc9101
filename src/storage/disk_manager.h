// DiskManager: page-granular file I/O with an optional rotational-disk
// latency model.
//
// The paper's testbed uses 15kRPM SAS disks for disk-resident experiments.
// This container has neither those disks nor their latencies, so "disk
// residency" is emulated: pages live in a real backing file (or an anonymous
// in-memory store) and each miss-driven read is charged a configurable
// latency (seek + transfer). The latency model is what makes shared scans
// and buffer-pool behavior match the paper's disk-resident regime
// (see DESIGN.md, substitution table).

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/status.h"
#include "io/io_scheduler.h"
#include "storage/page.h"

namespace sharing {

using PageId = uint64_t;
inline constexpr PageId kInvalidPageId = ~0ull;

struct DiskOptions {
  /// Path of the backing file; empty means an in-memory page store (still
  /// charged the latency model — this is the default for reproducible
  /// benchmarks, where filesystem cache effects would add noise).
  std::string path;

  /// Fixed per-read latency in microseconds (models seek + rotational
  /// delay). 0 disables the model (memory-resident experiments).
  uint32_t read_latency_micros = 0;

  /// Sequential-transfer bandwidth in MiB/s used to charge per-byte read
  /// time on top of `read_latency_micros`. 0 disables.
  uint32_t read_bandwidth_mib = 0;

  /// Latency charged on page writes (data loading); usually left 0 so load
  /// time does not pollute query measurements.
  uint32_t write_latency_micros = 0;
};

class DiskManager {
 public:
  explicit DiskManager(DiskOptions options,
                       MetricsRegistry* metrics = &MetricsRegistry::Global());
  ~DiskManager();

  SHARING_DISALLOW_COPY_AND_MOVE(DiskManager);

  /// Allocates a zeroed page and returns its id, recycling freed pages
  /// before growing the store (spill files stay bounded by their live
  /// working set instead of their cumulative traffic). Returns
  /// kInvalidPageId when the `disk.enospc` fault point fires (the
  /// emulated out-of-space condition; see common/fault.h) — callers that
  /// can degrade (the spill tier) must check, everyone else fails the
  /// subsequent read/write with OutOfRange.
  PageId AllocatePage();

  /// Returns `id` to the allocator's free list. The page's contents are
  /// dead the moment this is called; a subsequent AllocatePage may hand
  /// the id out again. Callers (the SP spill tier) free spilled pages
  /// without re-reading them once no reader can need them.
  void FreePage(PageId id);

  /// Pages currently on the free list (allocation recycling, for tests).
  std::size_t NumFreePages() const {
    std::lock_guard<std::mutex> lock(free_mutex_);
    return free_list_.size();
  }

  /// Reads page `id` into `out` (kPageBytes). Charges the read-latency
  /// model.
  Status ReadPage(PageId id, uint8_t* out);

  /// Writes kPageBytes from `data` to page `id`. The write-latency model
  /// (options.write_latency_micros) is charged on the calling thread —
  /// which is an I/O scheduler worker when the write arrived via
  /// WritePageAsync, keeping producer-thread timings clean.
  Status WritePage(PageId id, const uint8_t* data);

  /// Submit-style async read: schedules ReadPage(id, out) on `scheduler`
  /// under `priority`. `out` must stay valid until the ticket completes.
  /// Returns nullptr when the scheduler has shut down (callers fall back
  /// to the synchronous path).
  IoTicketRef ReadPageAsync(IoScheduler* scheduler, IoPriority priority,
                            PageId id, uint8_t* out);

  /// Submit-style async write. `data` (kPageBytes) is moved into the job,
  /// so the bytes stay alive until the write is durable; the latency
  /// model is charged on the scheduler worker, not the submitter.
  IoTicketRef WritePageAsync(IoScheduler* scheduler, IoPriority priority,
                             PageId id, std::vector<uint8_t> data);

  uint64_t num_pages() const {
    return next_page_.load(std::memory_order_relaxed);
  }

  /// Replaces the latency model at run time (benchmarks flip between
  /// memory-resident and disk-resident regimes on the same data).
  void SetLatencyModel(uint32_t read_latency_micros,
                       uint32_t read_bandwidth_mib);

 private:
  void ChargeReadLatency(std::size_t bytes);

  DiskOptions options_;
  Counter* reads_counter_;
  Counter* writes_counter_;

  std::atomic<uint64_t> next_page_{0};
  mutable std::mutex free_mutex_;
  std::vector<PageId> free_list_;
  /// File-backed recycled pages whose zeroing is deferred to first read:
  /// ReadPage serves them as zeros without touching disk, WritePage
  /// clears the mark. Spill chains (the free-list consumer) always write
  /// before reading, so the hot path never pays a zeroing write. The
  /// atomic emptiness hint keeps ReadPage on stores that never recycle
  /// (every main database file) to a single relaxed load — no mutex, no
  /// lookup.
  std::unordered_set<PageId> zero_on_read_;
  std::atomic<bool> zero_on_read_nonempty_{false};
  std::atomic<uint32_t> read_latency_micros_;
  std::atomic<uint32_t> read_bandwidth_mib_;

  // In-memory store (options.path empty).
  std::mutex mem_mutex_;
  std::vector<std::unique_ptr<uint8_t[]>> mem_pages_;

  // File-backed store.
  std::FILE* file_ = nullptr;
  std::mutex file_mutex_;
};

}  // namespace sharing
