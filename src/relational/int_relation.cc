#include "relational/int_relation.h"

#include <utility>

namespace setm {

Status AppendIntRows(TableHeap* heap, const int32_t* rows, size_t width,
                     size_t n) {
  return heap->AppendRecords(reinterpret_cast<const char*>(rows),
                             width * sizeof(int32_t), n);
}

IntHeapCursor::IntHeapCursor(const TableHeap& heap, size_t width)
    : pages_(heap.ReadPages()),
      width_(width),
      page_(kPageSize / sizeof(int32_t)) {}

Result<bool> IntHeapCursor::Next(const int32_t** row) {
  while (pos_ == end_) {
    size_t count = 0;
    auto more = pages_.Next(width_ * sizeof(int32_t),
                            reinterpret_cast<char*>(page_.data()), &count);
    if (!more.ok()) return more.status();
    if (!more.value()) return false;
    pos_ = 0;
    end_ = count * width_;
  }
  *row = page_.data() + pos_;
  pos_ += width_;
  return true;
}

Result<std::unique_ptr<IntRelation>> IntRelation::Create(Database* db,
                                                         TableBacking backing,
                                                         size_t width) {
  std::unique_ptr<IntRelation> relation(new IntRelation(width));
  if (backing == TableBacking::kHeap) {
    auto heap_or = TableHeap::Create(db->pool(), db->UnloggedPageTagger());
    if (!heap_or.ok()) return heap_or.status();
    relation->heap_.emplace(std::move(heap_or).value());
  }
  return relation;
}

Status IntRelation::Append(const int32_t* rows, size_t n) {
  if (heap_.has_value()) return AppendIntRows(&*heap_, rows, width_, n);
  rows_.insert(rows_.end(), rows, rows + n * width_);
  return Status::OK();
}

std::unique_ptr<IntRowCursor> IntRelation::Scan() const {
  if (heap_.has_value()) {
    return std::make_unique<IntHeapCursor>(*heap_, width_);
  }
  return std::make_unique<IntArrayCursor>(&rows_, width_);
}

uint64_t IntRelation::num_rows() const {
  return heap_.has_value() ? heap_->live_records() : rows_.size() / width_;
}

uint64_t IntRelation::num_pages() const {
  return heap_.has_value() ? heap_->num_pages()
                           : (size_bytes() + kPageSize - 1) / kPageSize;
}

Status IntRowBatch::Flush() {
  const size_t n = rows_.size() / out_->width();
  if (n == 0) return Status::OK();
  SETM_RETURN_IF_ERROR(out_->Append(rows_.data(), n));
  rows_.clear();
  return Status::OK();
}

}  // namespace setm
