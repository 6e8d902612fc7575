#include "storage/storage_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"

namespace setm {

namespace {

// Process-wide page-traffic series, shared by every backend instance (the
// per-operation ledgers stay per-IoStats). A page counts where a ledger
// counts it, so a backend without one (a WAL decorator's inner file) moves
// neither. Resolved once; reads after the magic-static init are lock-free.
struct GlobalIoMetrics {
  obs::Counter* reads;
  obs::Counter* writes;
  obs::Counter* allocations;
  obs::Counter* reuses;
};

const GlobalIoMetrics& IoMetrics() {
  static const GlobalIoMetrics metrics = [] {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
    GlobalIoMetrics m;
    m.reads = registry->GetCounter("setm_io_page_reads_total",
                                   "Pages read from storage backends");
    m.writes = registry->GetCounter("setm_io_page_writes_total",
                                    "Pages written to storage backends");
    m.allocations = registry->GetCounter(
        "setm_io_pages_allocated_total",
        "Fresh pages allocated in storage backends");
    m.reuses = registry->GetCounter(
        "setm_io_pages_reused_total",
        "Freed page ids handed out again instead of growing a backend");
    return m;
  }();
  return metrics;
}

}  // namespace

bool StorageBackend::ClassifySequential(PageId id) {
  std::lock_guard<std::mutex> lock(heads_mutex_);
  for (PageId& head : heads_) {
    if (head != kInvalidPageId && (id == head || id == head + 1)) {
      head = id;
      return true;
    }
  }
  // New stream: evict the round-robin victim slot.
  heads_[next_head_] = id;
  next_head_ = (next_head_ + 1) % kStreamHeads;
  return false;
}

void StorageBackend::AccountRead(PageId id) {
  if (stats_ == nullptr) return;
  IoMetrics().reads->Increment();
  ++stats_->page_reads;
  if (ClassifySequential(id)) {
    ++stats_->sequential_reads;
  } else {
    ++stats_->random_reads;
  }
}

void StorageBackend::AccountWrite(PageId id) {
  if (stats_ == nullptr) return;
  IoMetrics().writes->Increment();
  ++stats_->page_writes;
  if (ClassifySequential(id)) {
    ++stats_->sequential_writes;
  } else {
    ++stats_->random_writes;
  }
}

void StorageBackend::AccountAllocation() {
  if (stats_ == nullptr) return;
  IoMetrics().allocations->Increment();
  ++stats_->pages_allocated;
}

void StorageBackend::AccountReuse() {
  if (stats_ == nullptr) return;
  IoMetrics().reuses->Increment();
  ++stats_->pages_reused;
}

// ---------------------------------------------------------------------------
// MemoryBackend
// ---------------------------------------------------------------------------

Result<PageId> MemoryBackend::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto page = std::make_unique<Page>();
  page->Clear();
  if (!free_ids_.empty()) {
    const PageId id = free_ids_.back();
    free_ids_.pop_back();
    pages_[id] = std::move(page);
    AccountReuse();
    return id;
  }
  if (pages_.size() >= static_cast<size_t>(kInvalidPageId)) {
    return Status::ResourceExhausted("page id space exhausted");
  }
  pages_.push_back(std::move(page));
  AccountAllocation();
  return static_cast<PageId>(pages_.size() - 1);
}

Status MemoryBackend::FreePage(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= pages_.size() || pages_[id] == nullptr) {
    return Status::InvalidArgument("free of unallocated page " +
                                   std::to_string(id));
  }
  pages_[id].reset();
  free_ids_.push_back(id);
  return Status::OK();
}

Status MemoryBackend::ReadPage(PageId id, Page* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= pages_.size() || pages_[id] == nullptr) {
    return Status::InvalidArgument("read of unallocated page " +
                                   std::to_string(id));
  }
  std::memcpy(out->data, pages_[id]->data, kPageSize);
  AccountRead(id);
  return Status::OK();
}

Status MemoryBackend::WritePage(PageId id, const Page& page) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= pages_.size() || pages_[id] == nullptr) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(id));
  }
  std::memcpy(pages_[id]->data, page.data, kPageSize);
  AccountWrite(id);
  return Status::OK();
}

uint64_t MemoryBackend::NumPages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pages_.size();
}

uint64_t MemoryBackend::LivePages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pages_.size() - free_ids_.size();
}

// ---------------------------------------------------------------------------
// FileBackend
// ---------------------------------------------------------------------------

Result<std::unique_ptr<FileBackend>> FileBackend::Open(const std::string& path,
                                                       IoStats* stats,
                                                       bool truncate) {
  int flags = O_RDWR | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IOError("lseek(" + path + "): " + std::strerror(errno));
  }
  uint64_t num_pages = static_cast<uint64_t>(size) / kPageSize;
  return std::unique_ptr<FileBackend>(
      new FileBackend(path, fd, num_pages, stats));
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

Result<PageId> FileBackend::AllocatePage() {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  const uint64_t next = num_pages_.load(std::memory_order_relaxed);
  if (next >= static_cast<uint64_t>(kInvalidPageId)) {
    return Status::ResourceExhausted("page id space exhausted");
  }
  Page zero;
  zero.Clear();
  const off_t off = static_cast<off_t>(next) * kPageSize;
  ssize_t n = ::pwrite(fd_, zero.data, kPageSize, off);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("pwrite(" + path_ + "): " + std::strerror(errno));
  }
  AccountAllocation();
  num_pages_.store(next + 1, std::memory_order_release);
  return static_cast<PageId>(next);
}

Status FileBackend::ReadPage(PageId id, Page* out) {
  if (id >= NumPages()) {
    return Status::InvalidArgument("read of unallocated page " +
                                   std::to_string(id));
  }
  const off_t off = static_cast<off_t>(id) * kPageSize;
  ssize_t n = ::pread(fd_, out->data, kPageSize, off);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("pread(" + path_ + "): " + std::strerror(errno));
  }
  AccountRead(id);
  return Status::OK();
}

Status FileBackend::WritePage(PageId id, const Page& page) {
  if (id >= NumPages()) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(id));
  }
  const off_t off = static_cast<off_t>(id) * kPageSize;
  ssize_t n = ::pwrite(fd_, page.data, kPageSize, off);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("pwrite(" + path_ + "): " + std::strerror(errno));
  }
  AccountWrite(id);
  return Status::OK();
}

Status FileBackend::Truncate(uint64_t from, uint64_t to) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  const uint64_t pages = num_pages_.load(std::memory_order_relaxed);
  if (pages != from || to > from) {
    return Status::InvalidArgument(
        "truncate of " + path_ + " from " + std::to_string(from) + " to " +
        std::to_string(to) + " pages, but it holds " + std::to_string(pages));
  }
  if (::ftruncate(fd_, static_cast<off_t>(to) * kPageSize) != 0) {
    return Status::IOError("ftruncate(" + path_ + "): " +
                           std::strerror(errno));
  }
  num_pages_.store(to, std::memory_order_release);
  return Status::OK();
}

Status FileBackend::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync(" + path_ + "): " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace setm
