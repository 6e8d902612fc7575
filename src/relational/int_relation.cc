#include "relational/int_relation.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

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

/// Streams a kHeap relation's packed pages, one FetchPage per page: each
/// page's header is checked against the rows the relation put there, its
/// rows are copied out and the page is unpinned.
class PackedPageCursor : public IntRowCursor {
 public:
  PackedPageCursor(BufferPool* pool, const std::vector<PageId>* pages,
                   size_t width, uint64_t rows, size_t rows_per_page)
      : pool_(pool),
        pages_(pages),
        width_(width),
        rows_left_(rows),
        rows_per_page_(rows_per_page),
        page_(std::make_unique<Page>()) {}

  Result<bool> Next(const int32_t** row) override {
    if (pos_ == end_) {
      if (next_ == pages_->size()) return false;
      SETM_RETURN_IF_ERROR(Load((*pages_)[next_++]));
    }
    *row = page_->As<int32_t>(kPackedHeaderSize) + pos_;
    pos_ += width_;
    return true;
  }

 private:
  Status Load(PageId id) {
    auto guard_or = pool_->FetchPage(id);
    if (!guard_or.ok()) return guard_or.status();
    const Page* p = guard_or.value().page();
    const PackedPageHeader* h = p->As<PackedPageHeader>();
    const uint64_t expected =
        std::min<uint64_t>(rows_left_, rows_per_page_);
    if (h->rows != expected || h->width != width_) {
      return Status::Corruption(
          "packed page " + std::to_string(id) + " holds " +
          std::to_string(h->rows) + " rows of width " +
          std::to_string(h->width) + " where " + std::to_string(expected) +
          " rows of width " + std::to_string(width_) + " were written");
    }
    std::memcpy(page_->data, p->data,
                kPackedHeaderSize + expected * width_ * sizeof(int32_t));
    rows_left_ -= expected;
    pos_ = 0;
    end_ = expected * width_;
    return Status::OK();
  }

  BufferPool* pool_;
  const std::vector<PageId>* pages_;
  size_t width_;
  uint64_t rows_left_;  ///< rows on the pages not yet loaded
  size_t rows_per_page_;
  size_t next_ = 0;     ///< index of the next page to load
  std::unique_ptr<Page> page_;  ///< copy of the current page
  size_t pos_ = 0;              ///< next row's offset into its rows, in ints
  size_t end_ = 0;              ///< ints of rows on the current page
};

}  // namespace

IntRelation::IntRelation(size_t width, BufferPool* pool, PageHook page_hook)
    : width_(width),
      rows_per_page_(RowsPerPage(width)),
      pool_(pool),
      page_hook_(std::move(page_hook)) {
  if (pool_ != nullptr) tail_ = std::make_unique<Page>();
}

size_t IntRelation::RowsPerPage(size_t width) {
  return width == 0 ? 0
                    : (kPageSize - kPackedHeaderSize) / (width * sizeof(int32_t));
}

Result<std::unique_ptr<IntRelation>> IntRelation::Create(Database* db,
                                                         TableBacking backing,
                                                         size_t width) {
  if (backing == TableBacking::kHeap) {
    return CreateInPool(db->pool(), width, db->UnloggedPageTagger());
  }
  return CreateInPool(nullptr, width);
}

Result<std::unique_ptr<IntRelation>> IntRelation::CreateInPool(
    BufferPool* pool, size_t width, PageHook page_hook) {
  if (RowsPerPage(width) == 0) {
    return Status::InvalidArgument("no page holds a row of " +
                                   std::to_string(width) + " ints");
  }
  return std::unique_ptr<IntRelation>(
      new IntRelation(width, pool, std::move(page_hook)));
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
  auto guard_or = pool_->NewPage();
  if (!guard_or.ok()) return guard_or.status();
  PageGuard guard = std::move(guard_or).value();
  PackedPageHeader* h = tail_->As<PackedPageHeader>();
  h->rows = static_cast<uint32_t>(tail_rows_);
  h->width = static_cast<uint32_t>(width_);
  std::memcpy(guard.page()->data, tail_->data,
              kPackedHeaderSize + tail_rows_ * width_ * sizeof(int32_t));
  guard.MarkDirty();
  if (page_hook_) page_hook_(guard.id());
  pages_.push_back(guard.id());
  tail_rows_ = 0;
  return Status::OK();
}

Status IntRelation::Finish() {
  if (finished_) return Status::Internal("IntRelation finished twice");
  if (tail_rows_ > 0) SETM_RETURN_IF_ERROR(WriteTail());
  finished_ = true;
  return Status::OK();
}

std::unique_ptr<IntRowCursor> IntRelation::Scan() const {
  if (!finished_) return std::make_unique<UnfinishedCursor>();
  if (pool_ == nullptr) return std::make_unique<IntArrayCursor>(&rows_, width_);
  return std::make_unique<PackedPageCursor>(pool_, &pages_, width_, num_rows_,
                                            rows_per_page_);
}

uint64_t IntRelation::num_pages() const {
  return (num_rows_ + rows_per_page_ - 1) / rows_per_page_;
}

}  // namespace setm
