#ifndef SETM_STORAGE_STORAGE_BACKEND_H_
#define SETM_STORAGE_STORAGE_BACKEND_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace setm {

/// Abstract page store: a flat, growable array of 4 KiB pages.
///
/// Implementations classify each access as sequential or random, mirroring
/// the cost model the paper uses in its analysis. Classification tracks a
/// small set of recent access positions ("stream heads", the way OS
/// readahead detects concurrent sequential streams): an access that
/// continues any tracked stream (same page or the next one) is sequential;
/// anything else is random and starts a new tracked stream. This keeps a
/// merge-scan join reading two tables alternately — perfectly sequential
/// per table — classified as sequential, as the paper's analysis assumes.
/// All accesses are accumulated into an IoStats owned by the caller, so
/// independent backends (base tables, sort run files) can share one ledger.
class StorageBackend {
 public:
  /// `stats` may be null (accounting disabled); otherwise must outlive this.
  explicit StorageBackend(IoStats* stats) : stats_(stats) {}
  virtual ~StorageBackend() = default;

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  /// Hands out a zeroed page: a freed id if the backend reuses them (see
  /// FreePage), else a new one appended at the end.
  virtual Result<PageId> AllocatePage() = 0;

  /// Gives page `id` back; its content is gone. A backend that reuses ids
  /// (MemoryBackend) frees the page and hands the id out again; the default
  /// keeps the page allocated and unused. The caller must hold no other
  /// reference to the page.
  virtual Status FreePage(PageId id) {
    (void)id;
    return Status::OK();
  }

  /// Reads page `id` into `*out`. Fails with InvalidArgument for ids that
  /// were never allocated.
  virtual Status ReadPage(PageId id, Page* out) = 0;

  /// Writes `page` at `id`. Fails for ids that were never allocated.
  virtual Status WritePage(PageId id, const Page& page) = 0;

  /// Number of pages allocated so far.
  virtual uint64_t NumPages() const = 0;

  /// Shrinks the store from `from` pages to its first `to`, dropping the
  /// pages past `to` and their ids, provided it still holds exactly `from`
  /// (an allocation in between refuses the shrink with InvalidArgument).
  /// The default, for stores that never shrink, is NotSupported.
  virtual Status Truncate(uint64_t from, uint64_t to) {
    (void)from;
    (void)to;
    return Status::NotSupported("this page store does not shrink");
  }

  /// Forces every completed write to stable storage before returning.
  /// pwrite alone only reaches the OS page cache — a checkpoint's carefully
  /// ordered "data pages, then superblock" sequence is not ordered at the
  /// device until a sync sits between the two. Backends without a
  /// durability boundary (memory) are a no-op.
  virtual Status Sync() { return Status::OK(); }

  /// The shared I/O ledger (may be null).
  IoStats* stats() const { return stats_; }

  /// Records in the ledger that a freed page id was handed out again, by
  /// this backend or by an allocation hook in front of it (BufferPool).
  void AccountReuse();

 protected:
  /// Classifies and records a read of `id` in the ledger.
  void AccountRead(PageId id);
  /// Classifies and records a write of `id` in the ledger.
  void AccountWrite(PageId id);
  /// Records a fresh allocation in the ledger.
  void AccountAllocation();

 private:
  /// True (and the matching head advanced) if `id` continues a tracked
  /// sequential stream. Guarded by heads_mutex_ so backends accessed from
  /// concurrent worker threads classify without racing on the stream heads
  /// (the IoStats counters themselves are atomic).
  bool ClassifySequential(PageId id);

  IoStats* stats_;
  /// Recently observed stream positions; kInvalidPageId marks empty slots.
  static constexpr size_t kStreamHeads = 8;
  std::mutex heads_mutex_;
  PageId heads_[kStreamHeads] = {kInvalidPageId, kInvalidPageId,
                                 kInvalidPageId, kInvalidPageId,
                                 kInvalidPageId, kInvalidPageId,
                                 kInvalidPageId, kInvalidPageId};
  size_t next_head_ = 0;  // round-robin victim for new streams
};

/// Heap-backed page store. I/O costs are virtual (only counted), which keeps
/// experiments deterministic and fast while preserving the paper's unit of
/// measure; see FileBackend for a real-file implementation.
class MemoryBackend : public StorageBackend {
 public:
  explicit MemoryBackend(IoStats* stats = nullptr) : StorageBackend(stats) {}

  /// Reuses the most recently freed id before growing.
  Result<PageId> AllocatePage() override;
  /// Frees the page's memory and keeps its id for reuse. A read or write
  /// of a freed id is InvalidArgument until the id is allocated again.
  Status FreePage(PageId id) override;
  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;
  /// Ids ever handed out, freed ones included.
  uint64_t NumPages() const override;
  /// Pages currently allocated: NumPages() less the freed ids.
  uint64_t LivePages() const;

 private:
  /// Guards the page vector (growth in AllocatePage). Pages are held by
  /// unique_ptr so element addresses stay stable across growth; page data
  /// is copied under the lock, which at 4 KiB is cheap at this scale. A
  /// freed page's slot is null.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<PageId> free_ids_;
};

/// File-backed page store using POSIX pread/pwrite on a single file.
class FileBackend : public StorageBackend {
 public:
  /// Opens (creating if needed, truncating by default) the backing file.
  /// Check `status()` after construction.
  static Result<std::unique_ptr<FileBackend>> Open(const std::string& path,
                                                   IoStats* stats = nullptr,
                                                   bool truncate = true);

  ~FileBackend() override;

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;
  uint64_t NumPages() const override {
    return num_pages_.load(std::memory_order_acquire);
  }
  /// ftruncate(2), under the allocation lock.
  Status Truncate(uint64_t from, uint64_t to) override;
  /// fdatasync(2): file contents (and the size, which fdatasync covers when
  /// it changed) are on the device when this returns OK.
  Status Sync() override;

  const std::string& path() const { return path_; }

 private:
  FileBackend(std::string path, int fd, uint64_t num_pages, IoStats* stats)
      : StorageBackend(stats),
        path_(std::move(path)),
        fd_(fd),
        num_pages_(num_pages) {}

  std::string path_;
  int fd_;
  /// pread/pwrite are thread-safe per POSIX; allocation extends the file
  /// under alloc_mutex_ and publishes the new size with a release store.
  std::mutex alloc_mutex_;
  std::atomic<uint64_t> num_pages_;
};

}  // namespace setm

#endif  // SETM_STORAGE_STORAGE_BACKEND_H_
