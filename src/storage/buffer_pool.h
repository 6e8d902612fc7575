#ifndef SETM_STORAGE_BUFFER_POOL_H_
#define SETM_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/storage_backend.h"

namespace setm {

class BufferPool;

/// RAII handle to a pinned buffer frame.
///
/// The frame stays pinned (ineligible for eviction) while at least one guard
/// references it. Call `MarkDirty()` after mutating the page so the pool
/// writes it back on eviction/flush. Guards are movable but not copyable.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_index, PageId id, Page* page)
      : pool_(pool), frame_index_(frame_index), id_(id), page_(page) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;

  /// True when the guard references a frame.
  bool valid() const { return page_ != nullptr; }

  /// The buffered page contents (mutable; pair writes with MarkDirty()).
  Page* page() const { return page_; }

  /// Page id of the pinned page.
  PageId id() const { return id_; }

  /// Flags the page for write-back on eviction or flush.
  void MarkDirty();

  /// Unpins early (idempotent); the guard becomes invalid.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_index_ = 0;
  PageId id_ = kInvalidPageId;
  Page* page_ = nullptr;
};

/// How the pool keeps a page's frame once nothing pins it.
enum class PageHint {
  kNone,    ///< plain LRU
  kRetain,  ///< stay resident while the retained share has room
};

/// Fixed-capacity page cache over a StorageBackend: LRU replacement plus a
/// bounded retained share, and page release.
///
/// All page traffic of the engine flows through a pool, so the backend's
/// IoStats ledger reflects misses only — exactly the "page accesses" the
/// paper counts. Pool capacity is the knob for the buffer-size ablation.
///
/// Replacement follows DBMIN's locality sets (Chou and DeWitt, VLDB 1985):
/// a relation every pass rescans (SETM's R_1, a looping scan) is fetched
/// with PageHint::kRetain, and its unpinned frames stay resident, off the
/// LRU list, up to capacity / kRetainedShareDivisor frames; past that share
/// they are plain LRU frames, so a looping relation larger than the share
/// degrades to LRU instead of starving every other scan. Eviction only
/// ever walks the LRU list, so retained frames cost it nothing. Pages
/// fetched without a hint (heap tables, the SQL engine) are plain LRU.
///
/// DBMIN gives a straight-sequential reference one frame and never lets
/// it displace a page another scan reads first. SETM's scratch relations
/// (R_k, the count's spilled runs) are written once and read once, in
/// order, and follow that rule once the pool is full. A page's last read
/// (TakePage) copies it out of its frame if it is resident, and otherwise
/// reads it from the backend straight into the caller's buffer, taking no
/// frame. A page's write (AddPage) takes a free frame or the LRU victim's,
/// unless the victim is itself a dirty AddPage page, scratch that a scan
/// has still to read: the new page then goes straight to the backend. So
/// the head of R_{k-1} that the pool holds when pass k starts is read from
/// the pool, and as much of R_k as fits in the frames that frees stays
/// there for pass k+1; nothing of either is written back and read again.
///
/// ReleasePage ends a page's life: its frame goes back to the free frames
/// without a write-back, dirty or not, and its id goes to the release hook
/// or the backend's FreePage, to be handed out again before the backend
/// grows. SETM's scratch relations release their pages when dropped, so a
/// dirty page that dies in the pool is never written.
///
/// Thread safety: all pool bookkeeping (page table, LRU, pin counts, frame
/// metadata) is guarded by an internal mutex, so guards may be fetched and
/// released from concurrent threads — the partitioned miners pin pages of
/// distinct table heaps from worker threads. The *contents* of a pinned
/// page are not synchronized by the pool: callers that share one page
/// across threads must coordinate their own reads/writes (the engine never
/// does — each worker owns its tables and sort runs).
class BufferPool {
 public:
  /// `capacity` is in frames (pages). The backend must outlive the pool.
  BufferPool(StorageBackend* backend, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// At most capacity / kRetainedShareDivisor frames hold kRetain pages
  /// off the LRU list: half the pool.
  static constexpr size_t kRetainedShareDivisor = 2;

  /// Pins the given page, reading it from the backend on a miss. A kRetain
  /// hint puts the frame in the retained share if the share has room.
  Result<PageGuard> FetchPage(PageId id, PageHint hint = PageHint::kNone);

  /// Pins an already-allocated page *without* reading it from the backend
  /// on a miss, for callers that fully overwrite the page (manifest
  /// rewrites reusing a retired chain). Skipping the read keeps pointless
  /// read traffic out of the IoStats ledger. The frame comes back zeroed
  /// but *clean* — the caller pairs its overwrite with MarkDirty() as
  /// usual — so abandoning the page before writing (a later step of the
  /// rewrite failed) leaves the on-disk content untouched rather than
  /// risking a flush of zeros over it. On a hit the cached contents are
  /// returned unchanged. Caveat of the abandoned-miss case: the zeroed
  /// frame stays cached, shadowing the disk content — only use this for
  /// pages whose sole readers are future overwriters (retired manifest
  /// chains qualify; heap pages would not).
  Result<PageGuard> FetchPageForOverwrite(PageId id);

  /// Allocates a fresh zeroed page in the backend and pins it (dirty).
  /// When an allocation hook is set (see SetAllocationHook) and yields a
  /// recycled page id, that page is reused instead of extending the backend
  /// and counted in the ledger's pages_reused.
  Result<PageGuard> NewPage();

  /// Allocates a page as NewPage does and fills it with `image`, unpinned:
  /// the write of a scratch page. `hint` as for FetchPage. The page
  /// is cached dirty in a free frame or in the LRU victim's frame, unless
  /// that victim is a dirty page an earlier AddPage cached (a scratch page
  /// not yet read): then the page is written straight to the backend (a
  /// bypass write) and the victim stays. `on_id`, if set, sees the new id
  /// before the page can reach the backend, with the pool mutex held (so
  /// it must not call back into the pool). If the bypass write fails the
  /// id is given back as ReleasePage gives it.
  Result<PageId> AddPage(const Page& image, PageHint hint = PageHint::kNone,
                         const std::function<void(PageId)>& on_id = nullptr);

  /// A scratch page's last read: copies page `id` into `*out` and ends its
  /// life as ReleasePage does. A resident page is copied out of its frame
  /// (a hit); any other is read from the backend straight into `*out` (a
  /// miss and a bypass read), taking no frame and evicting nothing.
  /// InvalidArgument while the page is pinned. If the read fails the page
  /// is not released: its owner still holds it.
  Status TakePage(PageId id, Page* out);

  /// Ends page `id`'s life: drops its frame, if cached, without writing it
  /// back, and gives the id to the release hook (see SetReleaseHook) or,
  /// without one, to the backend's FreePage. The caller guarantees that
  /// nothing needs the page's bytes again and nothing references it: only
  /// scratch pages qualify. InvalidArgument while the page is pinned.
  Status ReleasePage(PageId id);

  /// Drops the cached frame of every page id >= `first`, unwritten: the
  /// backend is about to lose those pages. InvalidArgument, dropping
  /// nothing, if one of them is pinned or dirty.
  Status DropPagesFrom(PageId first);

  /// Installs a recycler consulted by NewPage before the backend: return a
  /// previously freed PageId to reuse it, or kInvalidPageId to fall through
  /// to a fresh backend allocation. Called with the pool mutex held, so the
  /// hook must not call back into the pool. A recycled page must be
  /// *unreferenced*: no checkpointed structure may reach it and no guard may
  /// still pin it (the database's free list guarantees both).
  void SetAllocationHook(std::function<PageId()> hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    allocation_hook_ = std::move(hook);
  }

  /// Installs the taker of released page ids, called by ReleasePage in
  /// place of the backend's FreePage, with the pool mutex held (so it must
  /// not call back into the pool). The database hands them to the free
  /// list its allocation hook pops.
  void SetReleaseHook(std::function<void(PageId)> hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    release_hook_ = std::move(hook);
  }

  /// Number of frames currently holding unflushed modifications — lets the
  /// checkpoint detect "nothing changed" and skip the superblock flip.
  uint64_t DirtyPageCount() const;

  /// Writes back one page if cached and dirty.
  Status FlushPage(PageId id);

  /// Writes back every dirty frame (pages stay cached).
  Status FlushAll();

  /// Number of frames.
  size_t capacity() const { return frames_.size(); }

  /// Point-in-time cache statistics of this pool instance. The same events
  /// also feed the process-wide metrics registry (setm_pool_* counters);
  /// the instance view is what `setm_mine --stats` prints per database.
  struct PoolStats {
    uint64_t hits = 0;    ///< fetches served from a resident frame
    uint64_t misses = 0;  ///< fetches that went to the backend
    uint64_t evictions = 0;         ///< frames recycled for another page
    uint64_t dirty_writebacks = 0;  ///< dirty pages written to the backend
    /// Poisoned-victim skips: eviction candidates whose dirty write-back
    /// failed and that were left resident for a later retry.
    uint64_t eviction_retries = 0;
    uint64_t bypass_reads = 0;   ///< TakePage misses, read into no frame
    uint64_t bypass_writes = 0;  ///< AddPage pages written past the pool
  };
  PoolStats Stats() const;

  /// Cache statistics.
  uint64_t hits() const;
  uint64_t misses() const;

  /// The underlying backend (for direct allocation checks in tests).
  StorageBackend* backend() const { return backend_; }

 private:
  friend class PageGuard;

  /// A frame's header (24 bytes on a 64-bit build). Its page is pages_[i]
  /// for frames_[i]: the headers are packed apart from the page bytes, so
  /// a walk of every frame (FlushAll, DirtyPageCount, DropPagesFrom) reads
  /// a header a frame, not one cache line per 4 KiB page.
  struct Frame {
    // Position in lru_ when pin_count == 0 and the frame holds a page.
    std::list<size_t>::iterator lru_pos;
    PageId id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool in_lru = false;
    bool retained = false;  // counted in retained_: never on the LRU list
    bool added = false;     // holds an AddPage page
  };

  /// "No frame": AllocateLocked's answer when the page bypasses the pool.
  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  void Unpin(size_t frame_index);
  /// Unpins frame `frame_index`. Caller must hold mutex_.
  void UnpinLocked(size_t frame_index);
  void MarkDirty(size_t frame_index);
  /// The allocation path of NewPage and AddPage: hands out a page id in
  /// `*id` (a recycled one from the allocation hook, counted as reused,
  /// else a fresh backend page) and returns the frame now holding it,
  /// dirty and unpinned, its bytes still to be set: the frame that caches
  /// a recycled id's former life, else a free frame or the LRU victim's.
  /// With `bypass_added` set, a dirty AddPage victim is kept and kNoFrame
  /// returned. On failure the id is given back. Caller must hold mutex_.
  Result<size_t> AllocateLocked(PageHint hint, bool bypass_added, PageId* id);
  /// Drops the frame of unpinned page `idx` unwritten, dirty or not.
  /// Caller must hold mutex_.
  void DropFrameLocked(size_t idx);
  /// Hands a dead page's id to the release hook or the backend's FreePage.
  /// Caller must hold mutex_.
  Status GiveBackLocked(PageId id);
  /// Pins the resident frame `idx` for a hit. Caller must hold mutex_.
  PageGuard PinHitLocked(size_t idx, PageId id, PageHint hint);
  /// Counts `f` in the retained share when `hint` asks and the share has
  /// room. Caller must hold mutex_.
  void RetainLocked(Frame* f, PageHint hint);
  /// Finds a frame to (re)use: a free frame, else the least recently used
  /// unpinned victim whose dirty write-back (if needed) succeeds. Victims
  /// with failing write-backs are skipped — they stay resident and dirty
  /// for a later retry — and the next LRU candidate is tried, so a single
  /// poisoned page cannot wedge eviction. Fails only when every unpinned
  /// frame is dirty on a failing backend (first write error) or all frames
  /// are pinned (ResourceExhausted); capacity never shrinks on any path.
  /// Caller must hold mutex_.
  Result<size_t> GetVictimFrameLocked();

  StorageBackend* backend_;
  std::function<PageId()> allocation_hook_;
  std::function<void(PageId)> release_hook_;
  std::vector<Frame> frames_;
  /// Frees the page array, allocated page-aligned.
  struct PageArrayDelete {
    void operator()(Page* pages) const {
      ::operator delete[](pages, std::align_val_t{kPageSize});
    }
  };
  /// One page per frame, in one page-aligned array never zeroed as a
  /// whole: a frame's bytes are set when it is handed out.
  std::unique_ptr<Page[], PageArrayDelete> pages_;
  size_t max_retained_;
  size_t retained_ = 0;  // frames with retained set
  mutable std::mutex mutex_;
  std::vector<size_t> free_frames_;
  std::list<size_t> lru_;  // front = most recently unpinned
  std::unordered_map<PageId, size_t> page_table_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t dirty_writebacks_ = 0;
  uint64_t eviction_retries_ = 0;
  uint64_t bypass_reads_ = 0;
  uint64_t bypass_writes_ = 0;

  // Process-wide series (resolved once at construction; all pools share
  // them, mirroring the instance counters above).
  obs::Counter* metric_hits_;
  obs::Counter* metric_misses_;
  obs::Counter* metric_evictions_;
  obs::Counter* metric_dirty_writebacks_;
  obs::Counter* metric_eviction_retries_;
  obs::Counter* metric_bypass_reads_;
  obs::Counter* metric_bypass_writes_;
};

}  // namespace setm

#endif  // SETM_STORAGE_BUFFER_POOL_H_
