// BufferPool: fixed set of page frames over a DiskManager, clock eviction,
// pin/unpin via RAII guards.
//
// Victim order: a free frame first, then the head of the *victim list*,
// then the clock sweep. The victim list holds frames whose last pin was
// dropped with PageGuard::ReleaseAsNextVictim(), most recently released
// first (MRU). A circular scan of a table larger than the pool releases
// its consumed pages that way, so the cycle recycles the frame it just
// finished with instead of flooding the pool (DESIGN.md decision #16).
//
// Residency policy (DESIGN.md decision #5): memory-resident experiments
// configure at least as many frames as data pages and a zero-latency disk;
// disk-resident experiments cap frames below the working set and enable the
// disk latency model. Same code path either way.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/status_or.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace sharing {

class BufferPool;

/// RAII pin on a page frame. Movable, not copyable. The frame's bytes stay
/// valid and resident for the guard's lifetime.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, std::size_t frame_index, PageId page_id,
            uint8_t* data);
  ~PageGuard();

  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  SHARING_DISALLOW_COPY(PageGuard);

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }
  const uint8_t* data() const { return data_; }
  uint8_t* mutable_data();

  /// Drops the pin early (idempotent).
  void Release();

  /// Drops the pin and, if it was the last one on a clean page, makes the
  /// frame the pool's next eviction victim (ahead of the clock sweep).
  /// For pages a looping scan has finished with and will not need again
  /// before the pool has cycled. A later fetch of the page by anyone takes
  /// it off the victim list. Idempotent, like Release().
  void ReleaseAsNextVictim();

 private:
  BufferPool* pool_ = nullptr;
  std::size_t frame_index_ = 0;
  PageId page_id_ = kInvalidPageId;
  uint8_t* data_ = nullptr;
};

struct BufferPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
};

class BufferPool {
 public:
  BufferPool(DiskManager* disk, std::size_t num_frames,
             MetricsRegistry* metrics = &MetricsRegistry::Global());
  ~BufferPool();

  SHARING_DISALLOW_COPY_AND_MOVE(BufferPool);

  /// Pins page `id`, reading it from disk on a miss.
  StatusOr<PageGuard> FetchPage(PageId id);

  /// True when `id` is resident and ready (no pin taken). Advisory — the
  /// page may be evicted right after; used by scan readahead to skip
  /// prefetching pages that would be cache hits anyway.
  bool IsResident(PageId id) const;

  /// Allocates a new page on disk, pins it, and formats it for rows of
  /// `row_width` bytes. The new page id is returned through `out_id`.
  StatusOr<PageGuard> NewPage(uint32_t row_width, PageId* out_id);

  /// Writes all dirty resident pages back to disk.
  Status FlushAll();

  /// Drops every unpinned resident page (flushing dirty ones first), so
  /// subsequent fetches go to disk. Pinned and in-flight pages survive.
  /// Returns the number of pages evicted. Used by fault-injection tests
  /// and cold-cache benchmark runs; not a hot path.
  StatusOr<std::size_t> EvictAll();

  std::size_t num_frames() const { return frames_.size(); }
  BufferPoolStats GetStats() const;

  /// Marks the frame holding `page_id` dirty (called via guards).
  void MarkDirty(PageId page_id);

 private:
  friend class PageGuard;

  enum class FrameState : uint8_t { kFree, kLoading, kReady };

  static constexpr std::size_t kNoFrame = static_cast<std::size_t>(-1);

  struct Frame {
    std::unique_ptr<uint8_t[]> data;
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool ref = false;  // clock reference bit
    bool dirty = false;
    FrameState state = FrameState::kFree;
    // Victim-list links. Only unpinned, clean, ready frames are linked.
    bool on_victim_list = false;
    std::size_t prev = kNoFrame;
    std::size_t next = kNoFrame;
  };

  void Unpin(std::size_t frame_index, bool as_next_victim);

  /// Picks the frame to (re)use: a free one, else the victim-list head,
  /// else the clock sweep's choice. Called with `mutex_` held; returns
  /// frames_.size() when everything is pinned or loading.
  std::size_t FindVictim();

  /// Victim-list maintenance, with `mutex_` held. Unlink is a no-op for a
  /// frame that is not on the list.
  void PushVictim(std::size_t frame_index);
  void UnlinkVictim(std::size_t frame_index);

  /// Evicts `frame` (writing back if dirty) and binds it to `new_page`,
  /// leaving it in kLoading state with one pin. Called with `mutex_` held;
  /// may release and reacquire it around I/O. If the write-back fails the
  /// old page stays resident, dirty and mapped, and the error is returned.
  Status PrepareFrame(std::size_t frame_index, PageId new_page,
                      std::unique_lock<std::mutex>& lock);

  DiskManager* disk_;
  MetricsRegistry* metrics_;
  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;

  mutable std::mutex mutex_;
  std::condition_variable io_cv_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, std::size_t> page_table_;
  std::size_t clock_hand_ = 0;
  // Every kFree frame, reserved to num_frames so pushes never allocate.
  // Taken before the victim list: a scan that pushes its consumed pages
  // would otherwise reuse one frame forever and never fill a cold pool.
  std::vector<std::size_t> free_frames_;
  std::size_t victim_head_ = kNoFrame;  // most recently released
};

}  // namespace sharing
