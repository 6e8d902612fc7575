#ifndef SETM_STORAGE_TABLE_HEAP_H_
#define SETM_STORAGE_TABLE_HEAP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace setm {

/// An unordered collection of variable-length records stored in a chain of
/// slotted pages, in the classic textbook layout:
///
///   [header | slot 0 | slot 1 | ... | free space ... | rec 1 | rec 0]
///
/// Records are only appended, and read back by a scan in storage order.
/// Insert appends to the tail page and chains a new page when the record
/// does not fit. Two kinds of data live here: heap tables (HeapTable, the
/// SQL engine's and SALES's rows) and ExternalSort's Tuple runs. SETM's R_1
/// and R_k use GroupedRelation's pages of transaction groups, and the C_k
/// count's spilled runs IntRelation's packed pages, instead.
///
/// Page-at-a-time I/O: the iterator pins each page once, copies it and
/// unpins it, so a scan costs one FetchPage per page rather than one per
/// record. Every page the iterator or Open() visits has its slot directory
/// checked first: a directory or record reaching past the page is
/// Corruption, never an out-of-bounds read.
class TableHeap {
 public:
  /// Observes every page id added to the chain — the seam the database uses
  /// to tag an unlogged table's pages for WAL bypass.
  using PageHook = std::function<void(PageId)>;

  /// Creates a fresh heap with one empty page. `page_hook`, if set, fires
  /// for that page and for every page a later Insert chains on.
  static Result<TableHeap> Create(BufferPool* pool,
                                  PageHook page_hook = nullptr);

  /// Re-opens an existing heap rooted at `first_page`. The tail is located
  /// by walking the chain (O(pages), done once at open). A chain that does
  /// not terminate within the backend's page count — a cycle or a next
  /// pointer into zeroed/foreign pages — fails with Corruption instead of
  /// looping forever, so reopening a damaged file stays a clean error.
  /// `chain`, if set, receives the ids of the pages walked, in chain order.
  static Result<TableHeap> Open(BufferPool* pool, PageId first_page,
                                std::vector<PageId>* chain = nullptr);

  TableHeap(TableHeap&&) = default;
  TableHeap& operator=(TableHeap&&) = default;

  /// Appends a record; fails with InvalidArgument if it can never fit in a
  /// page, IOError/ResourceExhausted on storage trouble.
  Status Insert(std::string_view record);

  /// Number of records.
  uint64_t live_records() const { return live_records_; }

  /// Total bytes of records (maintained on insert; Open() recomputes it
  /// from the chain walk, so it is always derived from the heap itself
  /// rather than trusted from external metadata).
  uint64_t live_bytes() const { return live_bytes_; }

  /// First page of the chain (persist this to re-open the heap).
  PageId first_page() const { return first_page_; }

  /// Tail page of the chain (informational; Open() re-derives it).
  PageId last_page() const { return last_page_; }

  /// Number of pages in the chain — the ||R|| of the paper's formulas.
  uint64_t num_pages() const { return num_pages_; }

  /// Appends every page id of the chain to `*out` (walks the chain, reading
  /// only each page's next pointer; same cycle guard as Open). Used to
  /// reclaim a dropped table's pages into the database free list.
  Status AppendChainPages(std::vector<PageId>* out) const;

  /// Forward cursor over the records in storage order. Each page is
  /// pinned once: its image is checked, copied and unpinned, and the
  /// records are then served from the copy. I/O and corruption errors
  /// surface from Next() — the first call included — never as a silently
  /// empty scan.
  ///
  ///     TableHeap::Iterator it = heap.Begin();
  ///     while (true) {
  ///       auto more = it.Next();
  ///       if (!more.ok()) return more.status();
  ///       if (!more.value()) break;
  ///       use(it.record());
  ///     }
  class Iterator {
   public:
    /// Advances to the next record (the first one on the first call);
    /// false at the end of the chain.
    Result<bool> Next();
    /// The current record's bytes, valid until the next Next().
    std::string_view record() const;

   private:
    friend class TableHeap;
    Iterator(BufferPool* pool, PageId first)
        : pool_(pool), next_page_(first) {}

    BufferPool* pool_;
    PageId next_page_;            ///< page to load once copy_ is exhausted
    std::unique_ptr<Page> copy_;  ///< image of the current page
    uint16_t slot_ = 0;           ///< the current record's slot in copy_
    bool on_page_ = false;        ///< copy_ holds the current page
  };

  /// Cursor positioned before the first record. Performs no I/O.
  Iterator Begin() const { return Iterator(pool_, first_page_); }

 private:
  TableHeap(BufferPool* pool, PageId first, PageId last, uint64_t pages)
      : pool_(pool), first_page_(first), last_page_(last), num_pages_(pages) {}

  BufferPool* pool_;
  PageId first_page_;
  PageId last_page_;
  uint64_t num_pages_;
  uint64_t live_records_ = 0;
  uint64_t live_bytes_ = 0;
  PageHook page_hook_;
};

}  // namespace setm

#endif  // SETM_STORAGE_TABLE_HEAP_H_
