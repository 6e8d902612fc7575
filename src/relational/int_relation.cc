#include "relational/int_relation.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace setm {

namespace {

/// The head of a packed page; the rows follow it back to back.
struct PackedPageHeader {
  uint32_t rows;
  uint32_t width;
};

constexpr size_t kPackedHeaderSize = sizeof(PackedPageHeader);

/// A stream that fails on its first Next(): the scan of an unfinished
/// relation, whose last rows are not on a page yet.
class UnfinishedCursor : public IntRowCursor {
 public:
  Result<bool> Next(const int32_t**) override {
    return Status::Internal("scan of an IntRelation before Finish()");
  }
};

/// Corruption unless packed page `id` holds `rows` rows of `width`.
Status CheckHeader(const Page& page, PageId id, uint64_t rows, size_t width) {
  const PackedPageHeader* h = page.As<PackedPageHeader>();
  if (h->rows == rows && h->width == width) return Status::OK();
  return Status::Corruption(
      "packed page " + std::to_string(id) + " holds " +
      std::to_string(h->rows) + " rows of width " + std::to_string(h->width) +
      " where " + std::to_string(rows) + " rows of width " +
      std::to_string(width) + " were written");
}

/// Sealed scratch pages held, in memory or in a pool.
obs::Gauge* ScratchPagesGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global()->GetGauge(
      "setm_scratch_pages",
      "Pages of sealed scratch relations (R_1, R_k, C_k count runs) held");
  return gauge;
}

}  // namespace

/// Streams a kHeap relation's packed pages into its own page buffer, one at
/// a time, and checks each page's header against the rows the relation put
/// there. A scan copies the rows out of a FetchPage and unpins it. A last
/// scan owns the relation and takes each page (BufferPool::TakePage): out
/// of its frame if it is resident, else from the backend into the buffer,
/// and the page is released either way.
class IntRelation::PageCursor : public IntRowCursor {
 public:
  /// Reads `rel` in place, or owns it when `last` is set.
  PageCursor(const IntRelation* rel, std::unique_ptr<IntRelation> last)
      : owned_(std::move(last)),
        rel_(owned_ != nullptr ? owned_.get() : rel),
        rows_left_(rel_->num_rows_),
        page_(std::make_unique<Page>()) {}

  Result<bool> Next(const int32_t** row) override {
    if (pos_ == end_) {
      if (next_ == rel_->pages_.size()) return false;
      SETM_RETURN_IF_ERROR(Load(next_++));
    }
    *row = page_->As<int32_t>(kPackedHeaderSize) + pos_;
    pos_ += rel_->width_;
    return true;
  }

 private:
  Status Load(size_t index) {
    const PageId id = rel_->pages_[index];
    const size_t width = rel_->width_;
    const uint64_t expected =
        std::min<uint64_t>(rows_left_, rel_->rows_per_page_);
    if (owned_ != nullptr) {
      SETM_RETURN_IF_ERROR(rel_->pool_->TakePage(id, page_.get()));
      owned_->released_ = index + 1;
      SETM_RETURN_IF_ERROR(CheckHeader(*page_, id, expected, width));
    } else {
      auto guard_or = rel_->pool_->FetchPage(id, rel_->hint_);
      if (!guard_or.ok()) return guard_or.status();
      const Page* p = guard_or.value().page();
      SETM_RETURN_IF_ERROR(CheckHeader(*p, id, expected, width));
      std::memcpy(page_->data, p->data,
                  kPackedHeaderSize + expected * width * sizeof(int32_t));
    }
    rows_left_ -= expected;
    pos_ = 0;
    end_ = expected * width;
    return Status::OK();
  }

  std::unique_ptr<IntRelation> owned_;  ///< set for a last scan
  const IntRelation* rel_;
  uint64_t rows_left_;  ///< rows on the pages not yet loaded
  size_t next_ = 0;     ///< index of the next page to load
  std::unique_ptr<Page> page_;  ///< copy of the current page
  size_t pos_ = 0;              ///< next row's offset into its rows, in ints
  size_t end_ = 0;              ///< ints of rows on the current page
};

IntRelation::IntRelation(size_t width, BufferPool* pool, PageHook page_hook,
                         PageHint hint)
    : width_(width),
      rows_per_page_(RowsPerPage(width)),
      pool_(pool),
      page_hook_(std::move(page_hook)),
      hint_(hint) {
  if (pool_ != nullptr) tail_ = std::make_unique<Page>();
}

IntRelation::~IntRelation() {
  if (finished_) {
    ScratchPagesGauge()->Add(-static_cast<int64_t>(num_pages()));
  }
  for (size_t i = released_; i < pages_.size(); ++i) {
    Status released = pool_->ReleasePage(pages_[i]);
    if (!released.ok()) {
      SETM_LOG(kError) << "scratch page not released: " << released.ToString();
    }
  }
}

size_t IntRelation::RowsPerPage(size_t width) {
  return width == 0 ? 0
                    : (kPageSize - kPackedHeaderSize) / (width * sizeof(int32_t));
}

Result<std::unique_ptr<IntRelation>> IntRelation::Create(Database* db,
                                                         TableBacking backing,
                                                         size_t width,
                                                         PageHint hint) {
  if (backing == TableBacking::kHeap) {
    return CreateInPool(db->pool(), width, db->UnloggedPageTagger(), hint);
  }
  return CreateInPool(nullptr, width);
}

Result<std::unique_ptr<IntRelation>> IntRelation::CreateInPool(
    BufferPool* pool, size_t width, PageHook page_hook, PageHint hint) {
  if (RowsPerPage(width) == 0) {
    return Status::InvalidArgument("no page holds a row of " +
                                   std::to_string(width) + " ints");
  }
  return std::unique_ptr<IntRelation>(
      new IntRelation(width, pool, std::move(page_hook), hint));
}

Status IntRelation::Append(const int32_t* rows, size_t n) {
  if (finished_) {
    return Status::Internal("append to an IntRelation after Finish()");
  }
  if (pool_ == nullptr) {
    rows_.insert(rows_.end(), rows, rows + n * width_);
    num_rows_ += n;
    return Status::OK();
  }
  const size_t row_bytes = width_ * sizeof(int32_t);
  while (n > 0) {
    const size_t fit = std::min(n, rows_per_page_ - tail_rows_);
    std::memcpy(tail_->data + kPackedHeaderSize + tail_rows_ * row_bytes, rows,
                fit * row_bytes);
    tail_rows_ += fit;
    num_rows_ += fit;
    rows += fit * width_;
    n -= fit;
    if (tail_rows_ == rows_per_page_) SETM_RETURN_IF_ERROR(WriteTail());
  }
  return Status::OK();
}

Status IntRelation::WriteTail() {
  PackedPageHeader* h = tail_->As<PackedPageHeader>();
  h->rows = static_cast<uint32_t>(tail_rows_);
  h->width = static_cast<uint32_t>(width_);
  // A partial last page: zero what earlier pages left past its rows.
  const size_t used = kPackedHeaderSize + tail_rows_ * width_ * sizeof(int32_t);
  std::memset(tail_->data + used, 0, kPageSize - used);
  auto id_or = pool_->AddPage(*tail_, hint_, page_hook_);
  if (!id_or.ok()) return id_or.status();
  pages_.push_back(id_or.value());
  tail_rows_ = 0;
  return Status::OK();
}

Status IntRelation::Finish() {
  if (finished_) return Status::Internal("IntRelation finished twice");
  if (tail_rows_ > 0) SETM_RETURN_IF_ERROR(WriteTail());
  finished_ = true;
  ScratchPagesGauge()->Add(static_cast<int64_t>(num_pages()));
  return Status::OK();
}

std::unique_ptr<IntRowCursor> IntRelation::Scan() const {
  if (!finished_) return std::make_unique<UnfinishedCursor>();
  if (pool_ == nullptr) return std::make_unique<IntArrayCursor>(&rows_, width_);
  return std::make_unique<PageCursor>(this, nullptr);
}

std::unique_ptr<IntRowCursor> IntRelation::LastScan(
    std::unique_ptr<IntRelation> relation) {
  if (!relation->finished_) return std::make_unique<UnfinishedCursor>();
  if (relation->pool_ == nullptr) {
    return std::make_unique<IntArrayCursor>(std::move(relation->rows_),
                                            relation->width_);
  }
  return std::make_unique<PageCursor>(nullptr, std::move(relation));
}

uint64_t IntRelation::num_pages() const {
  return (num_rows_ + rows_per_page_ - 1) / rows_per_page_;
}

}  // namespace setm
