#include "storage/buffer_pool.h"

#include <cstring>

#include "common/logging.h"
#include "common/trace.h"

namespace sharing {

// ---------------------------------------------------------------------------
// PageGuard
// ---------------------------------------------------------------------------

PageGuard::PageGuard(BufferPool* pool, std::size_t frame_index, PageId page_id,
                     uint8_t* data)
    : pool_(pool), frame_index_(frame_index), page_id_(page_id), data_(data) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      frame_index_(other.frame_index_),
      page_id_(other.page_id_),
      data_(other.data_) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_index_ = other.frame_index_;
    page_id_ = other.page_id_;
    data_ = other.data_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

uint8_t* PageGuard::mutable_data() {
  SHARING_DCHECK(valid());
  pool_->MarkDirty(page_id_);
  return data_;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_index_, /*as_next_victim=*/false);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

void PageGuard::ReleaseAsNextVictim() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_index_, /*as_next_victim=*/true);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::BufferPool(DiskManager* disk, std::size_t num_frames,
                       MetricsRegistry* metrics)
    : disk_(disk),
      metrics_(metrics),
      hits_(metrics->GetCounter(metrics::kBufferPoolHits)),
      misses_(metrics->GetCounter(metrics::kBufferPoolMisses)),
      evictions_(metrics->GetCounter(metrics::kBufferPoolEvictions)) {
  SHARING_CHECK(num_frames > 0);
  frames_.resize(num_frames);
  free_frames_.reserve(num_frames);
  for (std::size_t i = num_frames; i > 0; --i) {
    frames_[i - 1].data = std::make_unique<uint8_t[]>(kPageBytes);
    free_frames_.push_back(i - 1);
  }
}

BufferPool::~BufferPool() {
  Status st = FlushAll();
  if (!st.ok()) {
    SHARING_LOG(Warning) << "FlushAll on shutdown failed: " << st.ToString();
  }
}

void BufferPool::PushVictim(std::size_t frame_index) {
  Frame& f = frames_[frame_index];
  SHARING_DCHECK(!f.on_victim_list);
  f.ref = false;
  f.on_victim_list = true;
  f.prev = kNoFrame;
  f.next = victim_head_;
  if (victim_head_ != kNoFrame) frames_[victim_head_].prev = frame_index;
  victim_head_ = frame_index;
}

void BufferPool::UnlinkVictim(std::size_t frame_index) {
  Frame& f = frames_[frame_index];
  if (!f.on_victim_list) return;
  if (f.prev != kNoFrame) {
    frames_[f.prev].next = f.next;
  } else {
    victim_head_ = f.next;
  }
  if (f.next != kNoFrame) frames_[f.next].prev = f.prev;
  f.on_victim_list = false;
  f.prev = kNoFrame;
  f.next = kNoFrame;
}

std::size_t BufferPool::FindVictim() {
  if (!free_frames_.empty()) {
    std::size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  if (victim_head_ != kNoFrame) {
    std::size_t idx = victim_head_;
    UnlinkVictim(idx);
    return idx;
  }
  // Two full sweeps: the first clears reference bits, the second takes the
  // first unpinned frame. Every free frame is on free_frames_, so the sweep
  // only meets loading and ready ones.
  for (std::size_t step = 0; step < 2 * frames_.size(); ++step) {
    Frame& f = frames_[clock_hand_];
    std::size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (f.state != FrameState::kReady || f.pin_count > 0) continue;
    if (f.ref) {
      f.ref = false;
      continue;
    }
    return idx;
  }
  return frames_.size();
}

Status BufferPool::PrepareFrame(std::size_t frame_index, PageId new_page,
                                std::unique_lock<std::mutex>& lock) {
  Frame& f = frames_[frame_index];
  if (f.state == FrameState::kReady) {
    // Evict the current occupant (pin count zero is guaranteed by
    // FindVictim). A dirty one is written back while both page ids map to
    // the frame in kLoading state: a fetch of either waits instead of
    // reading the old page's stale disk copy or loading a second frame.
    const PageId old_page = f.page_id;
    if (f.dirty) {
      f.state = FrameState::kLoading;
      page_table_[new_page] = frame_index;
      lock.unlock();
      Status st = disk_->WritePage(old_page, f.data.get());
      lock.lock();
      if (!st.ok()) {
        // The frame holds the only current copy of old_page: keep it
        // resident and dirty, and fail the caller instead.
        page_table_.erase(new_page);
        f.state = FrameState::kReady;
        io_cv_.notify_all();
        return st;
      }
    }
    page_table_.erase(old_page);
    evictions_->Increment();
  }
  f.state = FrameState::kLoading;
  f.page_id = new_page;
  f.pin_count = 1;
  f.ref = true;
  f.dirty = false;
  page_table_[new_page] = frame_index;
  return Status::OK();
}

bool BufferPool::IsResident(PageId id) const {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = page_table_.find(id);
  return it != page_table_.end() &&
         frames_[it->second].state == FrameState::kReady;
}

StatusOr<PageGuard> BufferPool::FetchPage(PageId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = page_table_.find(id);
    if (it != page_table_.end()) {
      Frame& f = frames_[it->second];
      if (f.state == FrameState::kLoading) {
        // Another thread is bringing this page in; wait for it.
        io_cv_.wait(lock);
        continue;  // re-lookup: the load may have failed
      }
      UnlinkVictim(it->second);
      ++f.pin_count;
      f.ref = true;
      hits_->Increment();
      return PageGuard(this, it->second, id, f.data.get());
    }

    std::size_t victim = FindVictim();
    if (victim == frames_.size()) {
      return Status::Unavailable(
          "buffer pool: all frames pinned (frames=" +
          std::to_string(frames_.size()) + ")");
    }
    misses_->Increment();
    SHARING_RETURN_NOT_OK(PrepareFrame(victim, id, lock));
    Frame& f = frames_[victim];

    lock.unlock();
    Status st;
    {
      // The stall a query thread actually pays for a cold page — the
      // disk read only, not the frame bookkeeping around it.
      TraceSpan span("storage", "bufferpool.miss_stall");
      span.AddArg("page_id", static_cast<int64_t>(id));
      st = disk_->ReadPage(id, f.data.get());
    }
    lock.lock();
    if (!st.ok()) {
      f.state = FrameState::kFree;
      f.pin_count = 0;
      f.page_id = kInvalidPageId;
      page_table_.erase(id);
      free_frames_.push_back(victim);
      io_cv_.notify_all();
      return st;
    }
    f.state = FrameState::kReady;
    io_cv_.notify_all();
    return PageGuard(this, victim, id, f.data.get());
  }
}

StatusOr<PageGuard> BufferPool::NewPage(uint32_t row_width, PageId* out_id) {
  PageId id = disk_->AllocatePage();
  if (id == kInvalidPageId) {
    return Status::ResourceExhausted("disk allocation failed (out of space)");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  std::size_t victim = FindVictim();
  if (victim == frames_.size()) {
    return Status::Unavailable("buffer pool: all frames pinned");
  }
  SHARING_RETURN_NOT_OK(PrepareFrame(victim, id, lock));
  Frame& f = frames_[victim];
  page_layout::Init(f.data.get(), row_width);
  f.state = FrameState::kReady;
  f.dirty = true;
  io_cv_.notify_all();
  *out_id = id;
  return PageGuard(this, victim, id, f.data.get());
}

Status BufferPool::FlushAll() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto& f : frames_) {
    if (f.state == FrameState::kReady && f.dirty) {
      PageId id = f.page_id;
      lock.unlock();
      Status st = disk_->WritePage(id, f.data.get());
      lock.lock();
      SHARING_RETURN_NOT_OK(st);
      // Re-check: the frame may have been recycled while unlocked.
      if (f.page_id == id) f.dirty = false;
    }
  }
  return Status::OK();
}

StatusOr<std::size_t> BufferPool::EvictAll() {
  SHARING_RETURN_NOT_OK(FlushAll());
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.state != FrameState::kReady || f.pin_count > 0 || f.dirty) continue;
    UnlinkVictim(i);
    page_table_.erase(f.page_id);
    f.state = FrameState::kFree;
    f.page_id = kInvalidPageId;
    f.ref = false;
    free_frames_.push_back(i);
    evictions_->Increment();
    ++evicted;
  }
  return evicted;
}

void BufferPool::MarkDirty(PageId page_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return;
  UnlinkVictim(it->second);
  frames_[it->second].dirty = true;
}

void BufferPool::Unpin(std::size_t frame_index, bool as_next_victim) {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame& f = frames_[frame_index];
  SHARING_DCHECK(f.pin_count > 0);
  --f.pin_count;
  if (as_next_victim && f.pin_count == 0 && f.state == FrameState::kReady &&
      !f.dirty) {
    PushVictim(frame_index);
  }
}

BufferPoolStats BufferPool::GetStats() const {
  BufferPoolStats stats;
  stats.hits = hits_->Get();
  stats.misses = misses_->Get();
  stats.evictions = evictions_->Get();
  return stats;
}

}  // namespace sharing
