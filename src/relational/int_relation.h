#ifndef SETM_RELATIONAL_INT_RELATION_H_
#define SETM_RELATIONAL_INT_RELATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/catalog.h"
#include "relational/database.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace setm {

/// Pull stream of fixed-width all-INT32 rows — the row form of the C_k
/// count's spilled runs and of a shard's counts, read from an IntRelation
/// or an in-memory array.
class IntRowCursor {
 public:
  virtual ~IntRowCursor() = default;

  /// Points `*row` at the next row (width ints, valid until the next call);
  /// false at the end of the stream.
  virtual Result<bool> Next(const int32_t** row) = 0;
};

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

/// The pages of one scratch relation, in write order: page images in a
/// vector when there is no pool (kMemory), else pages of a buffer pool
/// (kHeap). Both hold the same images, so a relation's pages do not depend
/// on its backing.
///
/// Page lifecycle (kHeap): a page is born in BufferPool::AddPage, dirty in
/// the pool, or, once the pool is full of scratch pages no one has read,
/// written straight to the backend. It lives until it is released
/// (BufferPool::ReleasePage), which drops its frame, if any, unwritten and
/// hands its id out again. The page ids stay in memory: a scratch relation
/// is unlogged, never reopened, and needs no chain pointers. Copy() reads a
/// page through the pool (FetchPage); Take() is a page's last read
/// (BufferPool::TakePage: copied out of its frame, or read around the pool
/// into the caller's buffer) and releases it, so SETM's pass k frees
/// R_{k-1} while it writes R_k into the same ids, and evicts nothing to read
/// it. Pages are taken in order; the store releases every page it still
/// holds when it is destroyed. A kMemory page is freed when it is taken.
///
/// Once sealed, the store counts its pages in the setm_scratch_pages gauge
/// until it is destroyed.
class ScratchPages {
 public:
  /// Observes every page the store writes to a pool.
  using PageHook = std::function<void(PageId)>;

  /// Pages in `pool` (in memory for a null pool), each passed to
  /// `page_hook`, if set, as it is allocated, and fetched with `hint`.
  ScratchPages(BufferPool* pool, PageHook page_hook, PageHint hint);
  ~ScratchPages();

  ScratchPages(const ScratchPages&) = delete;
  ScratchPages& operator=(const ScratchPages&) = delete;

  /// Appends a copy of `image` as the last page.
  Status Add(const Page& image);
  /// Copies page `i` into `*out`.
  Status Copy(size_t i, Page* out) const;
  /// Copies page `i`, the first page not yet taken, into `*out` and
  /// releases it. A failed read releases nothing.
  Status Take(size_t i, Page* out);
  /// Counts the pages in the setm_scratch_pages gauge. Call once, after the
  /// last Add.
  void Seal();

  size_t size() const {
    return pool_ == nullptr ? images_.size() : ids_.size();
  }

 private:
  BufferPool* pool_;
  PageHook page_hook_;
  PageHint hint_;
  std::vector<std::unique_ptr<Page>> images_;  ///< kMemory
  std::vector<PageId> ids_;                    ///< kHeap
  size_t taken_ = 0;  ///< pages [0, taken_) are taken
  bool sealed_ = false;
};

/// A relation of fixed-width all-INT32 rows: the C_k count's spilled runs,
/// (key, count) rows sorted on the key. The hot mining path keeps R_1 and
/// R_k in a GroupedRelation instead.
///
/// Rows are appended, then Finish() seals the relation, and only then can
/// it be scanned: a scan of an unfinished relation fails on its first
/// Next(), and an append to a finished one fails. Pages are packed: a
/// header (uint32 row count, uint32 width) and then up to RowsPerPage(width)
/// rows back to back, so ||R|| = ceil(num_rows / RowsPerPage(width)). Rows
/// collect in a one-page buffer that goes to ScratchPages::Add when it
/// fills (and by Finish() for the last, partial page), so each page is
/// written once and never fetched back while appending. A scan reads each
/// page once and checks its header first: a row count or width other than
/// the relation's is Corruption.
class IntRelation {
 public:
  using PageHook = ScratchPages::PageHook;

  /// A relation of `width` columns in `pool` (in memory for a null pool).
  /// `page_hook`, if set, fires for each page as it is allocated: the C_k
  /// count's spilled runs (BudgetedCount) pass the database's unlogged
  /// tagger, so the runs beside R_k in the one pool skip the log.
  static Result<std::unique_ptr<IntRelation>> CreateInPool(
      BufferPool* pool, size_t width, PageHook page_hook = nullptr);

  IntRelation(const IntRelation&) = delete;
  IntRelation& operator=(const IntRelation&) = delete;

  /// Rows of `width` ints on one packed page.
  static size_t RowsPerPage(size_t width);

  size_t width() const { return width_; }

  /// Appends `n` rows stored back to back in `rows` (n * width ints).
  Status Append(const int32_t* rows, size_t n);

  /// Seals the relation: writes the last, partial page. Call once, after
  /// the last Append and before Scan.
  Status Finish();

  /// Cursor over the rows in append order. It reads the relation in place:
  /// keep the relation alive while it is in use.
  std::unique_ptr<IntRowCursor> Scan() const;

  /// The relation's last scan: takes `relation` and streams its rows like
  /// Scan(), each page taken (ScratchPages::Take) and so released as it is
  /// read. Pages the cursor never reaches (an error, or a cursor dropped
  /// early) are released with the cursor.
  static std::unique_ptr<IntRowCursor> LastScan(
      std::unique_ptr<IntRelation> relation);

  uint64_t num_rows() const { return num_rows_; }
  /// ||R|| in pages: ceil(num_rows / RowsPerPage(width)).
  uint64_t num_pages() const { return pages_.size(); }

 private:
  class PageCursor;

  IntRelation(size_t width, BufferPool* pool, PageHook page_hook);

  /// Writes the tail buffer as a new page and empties it.
  Status WriteTail();

  size_t width_;
  size_t rows_per_page_;
  uint64_t num_rows_ = 0;
  bool finished_ = false;
  ScratchPages pages_;
  Page tail_;  ///< the page being filled
  size_t tail_rows_ = 0;
};

/// One transaction of a GroupedRelation: its trans_id and its ids,
/// ascending (equal ids allowed). The ids are valid until the cursor that
/// yielded the group moves on.
struct IdGroup {
  int32_t tid = 0;
  const int32_t* begin = nullptr;
  const int32_t* end = nullptr;
};

/// The codec of a GroupedRelation page. A page is a header (uint32 bytes of
/// groups, uint32 ids on the page) and then whole groups (trans_id, n,
/// id_1 <= ... <= id_n), back to back: trans_id, n and id_1 as varints
/// (trans_id and id_1 zigzag-coded, n >= 1), then n - 1 non-negative varint
/// deltas id_j - id_{j-1}. Trans_ids ascend strictly, except that a
/// transaction too long for its page continues in the next page's first
/// group, with the same trans_id and ids not below the last one before it.
struct GroupPage {
  /// The header: uint32 bytes of groups, then uint32 ids on the page.
  static constexpr size_t kHeaderSize = 2 * sizeof(uint32_t);
  /// Bytes of groups one page holds.
  static constexpr size_t kCapacity = kPageSize - kHeaderSize;

  /// A decoded group: its trans_id and ids[begin, end) of the page.
  struct Group {
    int32_t tid;
    uint32_t begin;
    uint32_t end;
  };

  /// Where a stream of pages stands: the last group decoded, if any.
  struct Position {
    bool any = false;
    int32_t tid = 0;
    int32_t id = 0;  ///< that group's last id
  };

  /// Decodes the page image `data` of `size` bytes (kPageSize, or less for
  /// a truncated image) into `groups` and `ids`, which it replaces, after
  /// `*last`, which it advances. Corruption when a varint or group overruns
  /// the page's bytes, a group is empty, a trans_id or id descends (or an
  /// id passes INT32_MAX), a trans_id repeats other than in a page's first
  /// group, the page holds no group, or the header disagrees with the
  /// groups. Never reads past `size` bytes.
  static Status Decode(const uint8_t* data, size_t size, Position* last,
                       std::vector<Group>* groups, std::vector<int32_t>* ids);
};

class GroupCursor;

/// SETM's R_1, (trans_id, item), and R_k (k >= 2), (trans_id, C_k id), as
/// groups (trans_id, id_1 <= ... <= id_n), one per transaction, in
/// GroupPage's format: each transaction's trans_id is stored once and its
/// ids as varint deltas, where the paper's R_k (Section 4.1) repeats
/// trans_id and item_1..item_k in every row (core/setm_pipeline.h). Both
/// relations are sorted on trans_id with ascending ids per transaction, so
/// the groups keep them in that order.
///
/// Groups are appended a transaction at a time, then Finish() seals the
/// relation, and only then can it be scanned: a scan of an unfinished
/// relation fails on its first Next(), and an append to a finished one
/// fails, as does a trans_id not above the last one or a descending id.
/// Groups fill a one-page buffer that goes to ScratchPages::Add when the
/// next group does not fit (and by Finish() for the last page), so each
/// page is written once and never fetched back while appending. Both
/// backings hold the same page images (ScratchPages), so num_pages() is a
/// function of the encoded bytes alone and IterationStats do not depend on
/// the backing. A scan reads each page once, decodes it whole and checks it
/// against the ids written there; any disagreement is Corruption naming the
/// relation and the page. A relation created with PageHint::kRetain (R_1,
/// which every pass rescans) keeps its frames in the pool's retained share.
class GroupedRelation {
 public:
  using PageHook = ScratchPages::PageHook;

  /// A scratch relation named `name` (in error messages): in memory for
  /// kMemory, else in `db`'s buffer pool tagged unlogged (scratch never
  /// outlives the run, so it never needs the write-ahead log), fetched
  /// with `hint`.
  static std::unique_ptr<GroupedRelation> Create(
      Database* db, TableBacking backing, std::string name,
      PageHint hint = PageHint::kNone);

  /// A relation in `pool` (in memory for a null pool), each page passed to
  /// `page_hook`, if set, as it is allocated.
  GroupedRelation(BufferPool* pool, std::string name,
                  PageHook page_hook = nullptr,
                  PageHint hint = PageHint::kNone);

  GroupedRelation(const GroupedRelation&) = delete;
  GroupedRelation& operator=(const GroupedRelation&) = delete;

  const std::string& name() const { return name_; }

  /// Appends transaction `tid`'s `n` ids, ascending, as one group, or as
  /// several on consecutive pages when it does not fit its page. `tid` must
  /// be above the last appended trans_id; n = 0 appends nothing.
  Status Append(int32_t tid, const int32_t* ids, size_t n);

  /// Seals the relation: writes the last page. Call once, after the last
  /// Append and before Scan.
  Status Finish();

  /// Cursor over the transactions in trans_id order. It reads the relation
  /// in place: keep the relation alive while it is in use.
  std::unique_ptr<GroupCursor> Scan() const;

  /// The relation's last scan: takes `relation` and streams it like Scan(),
  /// each page taken (ScratchPages::Take) and so released as it is read.
  /// Pages the cursor never reaches are released with the cursor.
  static std::unique_ptr<GroupCursor> LastScan(
      std::unique_ptr<GroupedRelation> relation);

  /// Ids in all groups: |R_k|, the paper's rows.
  uint64_t num_rows() const { return num_rows_; }
  /// ||R_k||: the pages the groups were encoded into.
  uint64_t num_pages() const { return pages_.size(); }
  /// The page images, the same under both backings.
  const ScratchPages& pages() const { return pages_; }

 private:
  friend class GroupCursor;

  /// Writes the tail buffer as a new page and empties it.
  Status WriteTail();

  std::string name_;
  uint64_t num_rows_ = 0;
  bool finished_ = false;
  bool any_ = false;     ///< a group was appended
  int32_t last_tid_ = 0;  ///< the last appended trans_id
  ScratchPages pages_;
  std::vector<uint32_t> page_ids_;  ///< ids written on each page
  Page tail_;                       ///< the page being filled
  size_t tail_bytes_ = 0;           ///< bytes of groups on it
  uint32_t tail_ids_ = 0;           ///< ids on it
};

/// Streams a GroupedRelation a transaction at a time: the groups of a
/// transaction continued across pages are joined into one. Decodes a page
/// at a time into its own buffers.
class GroupCursor {
 public:
  GroupCursor(const GroupCursor&) = delete;
  GroupCursor& operator=(const GroupCursor&) = delete;

  /// Sets `*group` to the next transaction, valid until the next call;
  /// false at the end of the relation.
  Result<bool> Next(IdGroup* group);

 private:
  friend class GroupedRelation;

  /// Reads `rel` in place, or owns it when `last` is set.
  GroupCursor(const GroupedRelation* rel,
              std::unique_ptr<GroupedRelation> last);

  /// Reads, decodes and checks the next page.
  Status Load();

  std::unique_ptr<GroupedRelation> owned_;  ///< set for a last scan
  const GroupedRelation* rel_;
  size_t next_page_ = 0;  ///< index of the next page to load
  std::unique_ptr<Page> page_;
  GroupPage::Position last_;
  std::vector<GroupPage::Group> groups_;  ///< the loaded page's groups
  std::vector<int32_t> ids_;              ///< and their ids
  size_t at_ = 0;                         ///< the next group to yield
  std::vector<int32_t> joined_;  ///< a transaction continued across pages
};

}  // namespace setm

#endif  // SETM_RELATIONAL_INT_RELATION_H_
