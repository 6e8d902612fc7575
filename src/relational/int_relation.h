#ifndef SETM_RELATIONAL_INT_RELATION_H_
#define SETM_RELATIONAL_INT_RELATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/catalog.h"
#include "relational/database.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace setm {

/// Pull stream of fixed-width all-INT32 rows — the row form of SETM's
/// intermediate relations and of the C_k count's spilled runs, read from
/// an IntRelation or an in-memory array.
class IntRowCursor {
 public:
  virtual ~IntRowCursor() = default;

  /// Points `*row` at the next row (width ints, valid until the next call);
  /// false at the end of the stream.
  virtual Result<bool> Next(const int32_t** row) = 0;
};

/// Calls `fn(row)`, which returns a Status, for every remaining row of
/// `cursor`; stops at the first error.
template <typename Fn>
Status ForEachRow(IntRowCursor* cursor, Fn fn) {
  const int32_t* row = nullptr;
  while (true) {
    auto more = cursor->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) return Status::OK();
    SETM_RETURN_IF_ERROR(fn(row));
  }
}

/// Cursor over a flat array of `width`-int rows, borrowed or owned.
class IntArrayCursor : public IntRowCursor {
 public:
  /// Reads `*rows` in place; it must outlive the cursor and stay unchanged.
  IntArrayCursor(const std::vector<int32_t>* rows, size_t width)
      : rows_(rows), width_(width) {}
  /// Takes the rows.
  IntArrayCursor(std::vector<int32_t> rows, size_t width)
      : owned_(std::move(rows)), rows_(&owned_), width_(width) {}
  IntArrayCursor(const IntArrayCursor&) = delete;
  IntArrayCursor& operator=(const IntArrayCursor&) = delete;

  Result<bool> Next(const int32_t** row) override {
    if (pos_ >= rows_->size()) return false;
    *row = rows_->data() + pos_;
    pos_ += width_;
    return true;
  }

 private:
  std::vector<int32_t> owned_;
  const std::vector<int32_t>* rows_;
  size_t width_;
  size_t pos_ = 0;
};

/// A relation of fixed-width all-INT32 rows: SETM's R_1, (trans_id, item),
/// and R_k (k >= 2), (trans_id, C_k id), both at width 2, where the paper's
/// R_k (Section 4.1) is (trans_id, item_1..item_k) at width k+1
/// (core/setm_pipeline.h); also the C_k count's spilled runs. The hot
/// mining path keeps its relations in this form; Table/Tuple serve the SQL
/// engine.
///
/// Rows are appended, then Finish() seals the relation, and only then can
/// it be scanned: a scan of an unfinished relation fails on its first
/// Next(), and an append to a finished one fails. Both backings report the
/// same ||R||, num_pages() = ceil(num_rows / RowsPerPage(width)), so
/// IterationStats do not depend on the backing:
///  - kMemory: one flat int32 array.
///  - kHeap: packed pages, each a header (uint32 row count, uint32 width)
///    and then up to RowsPerPage(width) rows back to back: no slot
///    directory, so ||R|| is num_rows·width·4 bytes / 4 KB up to the
///    8-byte header (511 rows of width 2 a page).
///    Rows collect in a one-page buffer that goes to BufferPool::AddPage
///    when it fills (and by Finish() for the last, partial page), so each
///    page is written once and never fetched back while appending.
///    The page ids stay in memory: a scratch relation is unlogged, never
///    reopened, and needs no chain pointers. A scan fetches each page once
///    through the buffer pool and checks its header first: a row count or
///    width other than the relation's is Corruption.
///
/// Page lifecycle (kHeap): a page is born in AddPage, dirty in the pool,
/// or, once the pool is full of scratch pages no one has read, written
/// straight to the backend. It lives until the relation releases it
/// (BufferPool::ReleasePage), which drops its frame, if any, unwritten and
/// hands its id out again. A relation releases every page it still holds
/// when it is destroyed. LastScan() releases earlier: it takes the
/// relation, and each page is taken (BufferPool::TakePage: copied out of
/// its frame, or read around the pool into the cursor's buffer) and goes
/// back at once, so SETM's pass k frees R_{k-1} while it writes R_k into
/// the same ids, and evicts nothing to read it. A relation created with
/// PageHint::kRetain (R_1, which every pass rescans) keeps its frames in
/// the pool's retained share.
///
/// Every sealed relation counts its num_pages() in the setm_scratch_pages
/// gauge until it is destroyed.
class IntRelation {
 public:
  /// Observes every page the relation writes (see CreateInPool).
  using PageHook = std::function<void(PageId)>;

  /// A scratch relation of `width` columns: in memory for kMemory, else
  /// packed pages in `db`'s buffer pool tagged unlogged (scratch never
  /// outlives the run, so it never needs the write-ahead log), fetched
  /// with `hint`.
  static Result<std::unique_ptr<IntRelation>> Create(
      Database* db, TableBacking backing, size_t width,
      PageHint hint = PageHint::kNone);

  /// A kHeap relation of `width` columns in `pool` (kMemory for a null
  /// pool). `page_hook`, if set, fires for each page as it is allocated:
  /// Create and the C_k count's spilled runs (BudgetedCount) pass the
  /// database's unlogged tagger, so R_k and the runs beside it in the one
  /// pool skip the log.
  static Result<std::unique_ptr<IntRelation>> CreateInPool(
      BufferPool* pool, size_t width, PageHook page_hook = nullptr,
      PageHint hint = PageHint::kNone);

  /// Releases the pages the relation still holds.
  ~IntRelation();

  IntRelation(const IntRelation&) = delete;
  IntRelation& operator=(const IntRelation&) = delete;

  /// Rows of `width` ints on one packed page, the same for both backings.
  static size_t RowsPerPage(size_t width);

  size_t width() const { return width_; }

  /// Appends `n` rows stored back to back in `rows` (n * width ints).
  Status Append(const int32_t* rows, size_t n);

  /// Seals the relation: writes the last, partial page of a heap relation.
  /// Call once, after the last Append and before Scan.
  Status Finish();

  /// Cursor over the rows in append order. It reads the relation in place:
  /// keep the relation alive while it is in use.
  std::unique_ptr<IntRowCursor> Scan() const;

  /// The relation's last scan: takes `relation` and streams its rows like
  /// Scan(), each page taken from the pool (BufferPool::TakePage) and so
  /// released as it is read. Pages the cursor never reaches (an error, or
  /// a cursor dropped early) are released with the cursor.
  static std::unique_ptr<IntRowCursor> LastScan(
      std::unique_ptr<IntRelation> relation);

  uint64_t num_rows() const { return num_rows_; }
  uint64_t size_bytes() const { return num_rows_ * width_ * sizeof(int32_t); }
  /// ||R|| in pages: ceil(num_rows / RowsPerPage(width)).
  uint64_t num_pages() const;

 private:
  class PageCursor;

  IntRelation(size_t width, BufferPool* pool, PageHook page_hook,
              PageHint hint);

  /// Writes the tail buffer as a new page (BufferPool::AddPage) and empties
  /// it.
  Status WriteTail();

  size_t width_;
  size_t rows_per_page_;
  uint64_t num_rows_ = 0;
  bool finished_ = false;
  std::vector<int32_t> rows_;    ///< kMemory
  BufferPool* pool_;             ///< kHeap; null for kMemory
  PageHook page_hook_;
  PageHint hint_;
  std::vector<PageId> pages_;    ///< the written pages, in row order
  size_t released_ = 0;          ///< pages_[0, released_) are released
  std::unique_ptr<Page> tail_;   ///< the page being filled
  size_t tail_rows_ = 0;
};

}  // namespace setm

#endif  // SETM_RELATIONAL_INT_RELATION_H_
