#include "storage/buffer_pool.h"

#include <iterator>

#include "common/logging.h"

namespace setm {

// ---------------------------------------------------------------------------
// PageGuard
// ---------------------------------------------------------------------------

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_index_ = other.frame_index_;
    id_ = other.id_;
    page_ = other.page_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    other.id_ = kInvalidPageId;
  }
  return *this;
}

void PageGuard::MarkDirty() {
  SETM_DCHECK(valid());
  pool_->MarkDirty(frame_index_);
}

void PageGuard::Release() {
  if (pool_ != nullptr && page_ != nullptr) {
    pool_->Unpin(frame_index_);
  }
  pool_ = nullptr;
  page_ = nullptr;
  id_ = kInvalidPageId;
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::BufferPool(StorageBackend* backend, size_t capacity)
    : backend_(backend),
      frames_(capacity == 0 ? 1 : capacity),
      max_retained_(frames_.size() / kRetainedShareDivisor) {
  free_frames_.reserve(frames_.size());
  for (size_t i = frames_.size(); i > 0; --i) free_frames_.push_back(i - 1);
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
  metric_hits_ = registry->GetCounter(
      "setm_pool_hits_total", "Buffer pool fetches served from cache");
  metric_misses_ = registry->GetCounter(
      "setm_pool_misses_total", "Buffer pool fetches that hit the backend");
  metric_evictions_ = registry->GetCounter(
      "setm_pool_evictions_total", "Frames recycled for another page");
  metric_dirty_writebacks_ = registry->GetCounter(
      "setm_pool_dirty_writebacks_total",
      "Dirty pages written back to the backend");
  metric_eviction_retries_ = registry->GetCounter(
      "setm_pool_eviction_retries_total",
      "Eviction candidates skipped after a failed dirty write-back");
}

BufferPool::~BufferPool() {
  Status s = FlushAll();
  if (!s.ok()) {
    SETM_LOG(kError) << "buffer pool flush on destruction failed: "
                     << s.ToString();
  }
}

PageGuard BufferPool::PinHitLocked(size_t idx, PageId id, PageHint hint) {
  ++hits_;
  metric_hits_->Increment();
  Frame& f = frames_[idx];
  if (f.pin_count == 0 && f.in_lru) {
    lru_.erase(f.lru_pos);
    f.in_lru = false;
  }
  RetainLocked(&f, hint);
  ++f.pin_count;
  return PageGuard(this, idx, id, &f.page);
}

void BufferPool::RetainLocked(Frame* f, PageHint hint) {
  if (hint != PageHint::kRetain || f->retained) return;
  if (retained_ < max_retained_) {
    f->retained = true;
    ++retained_;
  }
}

Result<PageGuard> BufferPool::FetchPage(PageId id, PageHint hint) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) return PinHitLocked(it->second, id, hint);

  ++misses_;
  metric_misses_->Increment();
  auto victim = GetVictimFrameLocked();
  if (!victim.ok()) return victim.status();
  const size_t idx = victim.value();
  Frame& f = frames_[idx];
  Status read = backend_->ReadPage(id, &f.page);
  if (!read.ok()) {
    // The victim was already detached from the LRU and the page table; if
    // it were dropped here the pool would shrink by one frame forever.
    free_frames_.push_back(idx);
    return read;
  }
  f.id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.in_lru = false;
  RetainLocked(&f, hint);
  page_table_[id] = idx;
  return PageGuard(this, idx, id, &f.page);
}

Result<PageGuard> BufferPool::FetchPageForOverwrite(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= backend_->NumPages()) {
    return Status::InvalidArgument(
        "overwrite-fetch of unallocated page " + std::to_string(id));
  }
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    return PinHitLocked(it->second, id, PageHint::kNone);
  }

  ++misses_;
  metric_misses_->Increment();
  auto victim = GetVictimFrameLocked();
  if (!victim.ok()) return victim.status();
  const size_t idx = victim.value();
  Frame& f = frames_[idx];
  f.page.Clear();
  f.id = id;
  f.pin_count = 1;
  // Deliberately clean: the disk still holds the page's previous (valid)
  // content, and the frame only diverges from it once the caller writes
  // and MarkDirty()s. If the caller bails before that — say a later
  // allocation in the same rewrite fails — eviction discards the zeroed
  // frame instead of flushing zeros over live data.
  f.dirty = false;
  f.in_lru = false;
  page_table_[id] = idx;
  return PageGuard(this, idx, id, &f.page);
}

Result<PageGuard> BufferPool::NewPage(PageHint hint) {
  std::lock_guard<std::mutex> lock(mutex_);
  PageId id = kInvalidPageId;
  if (allocation_hook_) id = allocation_hook_();
  if (id != kInvalidPageId) {
    backend_->AccountReuse();
    // Recycling a freed page. It may still be cached from its former life
    // (a retired manifest page, say); that stale frame must be reset, not
    // kept, or the new owner would see the old bytes.
    auto it = page_table_.find(id);
    if (it != page_table_.end()) {
      Frame& f = frames_[it->second];
      // Freed pages are unreferenced by contract, so nothing can hold a pin.
      SETM_CHECK(f.pin_count == 0);
      if (f.in_lru) {
        lru_.erase(f.lru_pos);
        f.in_lru = false;
      }
      f.page.Clear();
      f.pin_count = 1;
      f.dirty = true;  // the zeroed image must reach the backend eventually
      RetainLocked(&f, hint);
      return PageGuard(this, it->second, id, &f.page);
    }
  } else {
    auto id_or = backend_->AllocatePage();
    if (!id_or.ok()) return id_or.status();
    id = id_or.value();
  }
  auto victim = GetVictimFrameLocked();
  if (!victim.ok()) return victim.status();
  const size_t idx = victim.value();
  Frame& f = frames_[idx];
  f.page.Clear();
  f.id = id;
  f.pin_count = 1;
  f.dirty = true;  // a new page must reach the backend eventually
  f.in_lru = false;
  RetainLocked(&f, hint);
  page_table_[id] = idx;
  return PageGuard(this, idx, id, &f.page);
}

Status BufferPool::ReleasePage(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    const size_t idx = it->second;
    Frame& f = frames_[idx];
    if (f.pin_count > 0) {
      return Status::InvalidArgument("release of pinned page " +
                                     std::to_string(id));
    }
    if (f.in_lru) lru_.erase(f.lru_pos);
    if (f.retained) --retained_;
    page_table_.erase(it);
    f.id = kInvalidPageId;
    f.dirty = false;  // dropped unwritten: nobody reads these bytes again
    f.in_lru = false;
    f.retained = false;
    free_frames_.push_back(idx);
  }
  if (release_hook_) {
    release_hook_(id);
    return Status::OK();
  }
  return backend_->FreePage(id);
}

Status BufferPool::DropPagesFrom(PageId first) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Frame& f : frames_) {
    if (f.id != kInvalidPageId && f.id >= first &&
        (f.pin_count > 0 || f.dirty)) {
      return Status::InvalidArgument("page " + std::to_string(f.id) +
                                     " past the truncation point is in use");
    }
  }
  for (size_t idx = 0; idx < frames_.size(); ++idx) {
    Frame& f = frames_[idx];
    if (f.id == kInvalidPageId || f.id < first) continue;
    if (f.in_lru) lru_.erase(f.lru_pos);
    if (f.retained) --retained_;
    page_table_.erase(f.id);
    f.id = kInvalidPageId;
    f.in_lru = false;
    f.retained = false;
    free_frames_.push_back(idx);
  }
  return Status::OK();
}

Status BufferPool::FlushPage(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(id);
  if (it == page_table_.end()) return Status::OK();
  Frame& f = frames_[it->second];
  if (f.dirty) {
    SETM_RETURN_IF_ERROR(backend_->WritePage(f.id, f.page));
    f.dirty = false;
    ++dirty_writebacks_;
    metric_dirty_writebacks_->Increment();
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Frame& f : frames_) {
    if (f.id != kInvalidPageId && f.dirty) {
      SETM_RETURN_IF_ERROR(backend_->WritePage(f.id, f.page));
      f.dirty = false;
      ++dirty_writebacks_;
      metric_dirty_writebacks_->Increment();
    }
  }
  return Status::OK();
}

BufferPool::PoolStats BufferPool::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PoolStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.dirty_writebacks = dirty_writebacks_;
  s.eviction_retries = eviction_retries_;
  return s;
}

uint64_t BufferPool::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

uint64_t BufferPool::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

uint64_t BufferPool::DirtyPageCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const Frame& f : frames_) {
    if (f.id != kInvalidPageId && f.dirty) ++n;
  }
  return n;
}

void BufferPool::Unpin(size_t frame_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame& f = frames_[frame_index];
  SETM_CHECK(f.pin_count > 0);
  // A retained frame stays resident, invisible to eviction.
  if (--f.pin_count > 0 || f.retained) return;
  lru_.push_front(frame_index);
  f.lru_pos = lru_.begin();
  f.in_lru = true;
}

void BufferPool::MarkDirty(size_t frame_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  frames_[frame_index].dirty = true;
}

Result<size_t> BufferPool::GetVictimFrameLocked() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer pool exhausted: all frames pinned");
  }
  // Walk candidates from the LRU end. A victim whose dirty write-back fails
  // is *skipped* — it stays resident (dirty, mapped, in LRU position) for a
  // later retry against a healed backend — and the next least-recently-used
  // frame is tried instead, so one poisoned page cannot wedge eviction while
  // clean or writable victims exist.
  Status first_error = Status::OK();
  for (auto it = std::prev(lru_.end());; --it) {
    const size_t idx = *it;
    Frame& f = frames_[idx];
    SETM_CHECK(f.pin_count == 0);
    if (f.dirty) {
      Status write = backend_->WritePage(f.id, f.page);
      if (!write.ok()) {
        ++eviction_retries_;
        metric_eviction_retries_->Increment();
        if (first_error.ok()) first_error = std::move(write);
        if (it == lru_.begin()) break;
        continue;
      }
      f.dirty = false;
      ++dirty_writebacks_;
      metric_dirty_writebacks_->Increment();
    }
    lru_.erase(it);
    f.in_lru = false;
    page_table_.erase(f.id);
    f.id = kInvalidPageId;
    ++evictions_;
    metric_evictions_->Increment();
    return idx;
  }
  // Every unpinned frame is dirty on a failing backend; report the first
  // write-back error. The pool keeps full capacity either way.
  return first_error;
}

}  // namespace setm
