#ifndef SETM_RELATIONAL_INT_RELATION_H_
#define SETM_RELATIONAL_INT_RELATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/catalog.h"
#include "relational/database.h"
#include "storage/table_heap.h"

namespace setm {

/// Pull stream of fixed-width all-INT32 rows — the row form of SETM's
/// intermediate relations, read from an IntRelation or an IntRowSort.
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

/// Appends `n` rows of `width` ints to `heap`, one record per row holding
/// the row's bytes — the format IntHeapCursor reads, and the one an
/// all-INT32 Tuple serializes to.
Status AppendIntRows(TableHeap* heap, const int32_t* rows, size_t width,
                     size_t n);

/// Streams a TableHeap of `width`-int records one page per FetchPage (the
/// heap's PageReader), so a relation scan or a sort-run read pins each page
/// once. A record of any other length is Corruption.
class IntHeapCursor : public IntRowCursor {
 public:
  IntHeapCursor(const TableHeap& heap, size_t width);

  Result<bool> Next(const int32_t** row) override;

 private:
  TableHeap::PageReader pages_;
  size_t width_;
  std::vector<int32_t> page_;  ///< the current page's rows
  size_t pos_ = 0;             ///< next row's offset into page_, in ints
  size_t end_ = 0;             ///< ints of page_ in use
};

/// A relation of fixed-width all-INT32 rows: SETM's R_k, (trans_id,
/// item_1..item_k) at width k+1 (paper Section 4.1). The hot mining path
/// keeps its relations in this form; Table/Tuple serve the SQL engine.
///
/// Both backings measure like the Table they replace, so IterationStats do
/// not depend on the row path:
///  - kMemory: one flat int32 array; size_bytes() and num_pages() are those
///    of a MemTable holding the same rows.
///  - kHeap: a TableHeap whose records are the rows' bytes, byte-identical
///    to a HeapTable of SetmMiner::RkSchema(width - 1), appended and read a
///    page at a time.
class IntRelation {
 public:
  /// A scratch relation of `width` columns: in memory for kMemory, else a
  /// heap in `db`'s buffer pool whose pages are tagged unlogged (scratch
  /// never outlives the run, so it never needs the write-ahead log).
  static Result<std::unique_ptr<IntRelation>> Create(Database* db,
                                                     TableBacking backing,
                                                     size_t width);

  size_t width() const { return width_; }

  /// Appends `n` rows stored back to back in `rows` (n * width ints).
  /// Heap relations pin their tail once per page per call, so callers
  /// append in batches.
  Status Append(const int32_t* rows, size_t n);

  /// Cursor over the rows in append order. It reads the relation in place:
  /// keep the relation alive, and append nothing, while it is in use.
  std::unique_ptr<IntRowCursor> Scan() const;

  uint64_t num_rows() const;
  uint64_t size_bytes() const { return num_rows() * width_ * sizeof(int32_t); }
  /// The paper's ||R||: the heap chain's length, or ceil(size_bytes /
  /// kPageSize) in memory.
  uint64_t num_pages() const;

 private:
  explicit IntRelation(size_t width) : width_(width) {}

  size_t width_;
  std::vector<int32_t> rows_;     ///< kMemory
  std::optional<TableHeap> heap_; ///< kHeap
};

/// Collects rows and appends them to an IntRelation a batch (several
/// pages) at a time. Call Flush() before reading the relation.
class IntRowBatch {
 public:
  explicit IntRowBatch(IntRelation* out) : out_(out) {}

  /// Buffers one row of out->width() ints.
  Status Add(const int32_t* row) {
    rows_.insert(rows_.end(), row, row + out_->width());
    return rows_.size() >= kBatchInts ? Flush() : Status::OK();
  }

  /// Appends the buffered rows.
  Status Flush();

 private:
  static constexpr size_t kBatchInts = 8 * kPageSize / sizeof(int32_t);

  IntRelation* out_;
  std::vector<int32_t> rows_;
};

}  // namespace setm

#endif  // SETM_RELATIONAL_INT_RELATION_H_
