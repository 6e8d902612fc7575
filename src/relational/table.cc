#include "relational/table.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace setm {

namespace {

/// Iterator over a row vector (copies rows out; the table may not mutate
/// during iteration).
class MemTableIterator : public TupleIterator {
 public:
  MemTableIterator(const std::vector<Tuple>* rows, const Schema* schema)
      : rows_(rows), schema_(schema) {}

  Result<bool> Next(Tuple* out) override {
    if (pos_ >= rows_->size()) return false;
    *out = (*rows_)[pos_++];
    return true;
  }

  const Schema& schema() const override { return *schema_; }

 private:
  const std::vector<Tuple>* rows_;
  const Schema* schema_;
  size_t pos_ = 0;
};

/// Iterator decoding heap records back into tuples.
class HeapTableIterator : public TupleIterator {
 public:
  HeapTableIterator(TableHeap::Iterator it, const Schema* schema)
      : it_(std::move(it)), schema_(schema) {}

  Result<bool> Next(Tuple* out) override {
    auto more = it_.Next();
    if (!more.ok() || !more.value()) return more;
    auto tuple_or = Tuple::Deserialize(*schema_, it_.record());
    if (!tuple_or.ok()) return tuple_or.status();
    *out = std::move(tuple_or).value();
    return true;
  }

  const Schema& schema() const override { return *schema_; }

 private:
  TableHeap::Iterator it_;
  const Schema* schema_;
};

/// (INT32, INT32) rows of a MemTable, read from its Values in place. The
/// schema says INT32, but Insert checks only arity, so each Value's own
/// type is checked too.
class MemInt32PairCursor : public Int32PairCursor {
 public:
  MemInt32PairCursor(const MemTable* table, uint64_t begin, uint64_t end)
      : table_(table), pos_(begin), end_(end) {}

  Result<bool> Next(int32_t* first, int32_t* second) override {
    const std::vector<Tuple>& rows = table_->rows();
    if (pos_ >= rows.size() || pos_ >= end_) return false;
    const Tuple& row = rows[pos_];
    for (size_t c = 0; c < 2; ++c) {
      if (row.value(c).type() != ValueType::kInt32) {
        return Status::InvalidArgument(
            "table '" + table_->name() + "' row " + std::to_string(pos_) +
            " holds a " + std::string(ValueTypeName(row.value(c).type())) +
            " in INT32 column '" + table_->schema().column(c).name + "'");
      }
    }
    *first = row.value(0).AsInt32();
    *second = row.value(1).AsInt32();
    ++pos_;
    return true;
  }

 private:
  const MemTable* table_;
  uint64_t pos_;
  uint64_t end_;
};

/// (INT32, INT32) rows of a HeapTable: two little-endian int32s from each
/// record, which must be exactly their 8 bytes, as Tuple::Deserialize
/// requires under the same schema.
class HeapInt32PairCursor : public Int32PairCursor {
 public:
  HeapInt32PairCursor(TableHeap::Iterator it, const std::string* name,
                      uint64_t begin, uint64_t end)
      : it_(std::move(it)), name_(name), skip_(begin), left_(end - begin) {}

  Result<bool> Next(int32_t* first, int32_t* second) override {
    for (; skip_ > 0; --skip_) {
      auto more = it_.Next();
      if (!more.ok() || !more.value()) return more;
    }
    if (left_ == 0) return false;
    --left_;
    auto more = it_.Next();
    if (!more.ok() || !more.value()) return more;
    const std::string_view record = it_.record();
    if (record.size() != 2 * sizeof(int32_t)) {
      return Status::Corruption(
          "table '" + *name_ + "' holds a record of " +
          std::to_string(record.size()) +
          " bytes where two INT32 columns take 8");
    }
    std::memcpy(first, record.data(), sizeof(int32_t));
    std::memcpy(second, record.data() + sizeof(int32_t), sizeof(int32_t));
    return true;
  }

 private:
  TableHeap::Iterator it_;
  const std::string* name_;
  uint64_t skip_;  ///< records before the range, not yet read past
  uint64_t left_;  ///< rows of the range not yet returned
};

}  // namespace

Result<std::unique_ptr<Int32PairCursor>> Table::ScanInt32Pairs(
    uint64_t begin, uint64_t end) const {
  if (schema_.NumColumns() != 2) {
    return Status::InvalidArgument(
        "table '" + name_ + "' has schema " + schema_.ToString() +
        ", not two INT32 columns");
  }
  for (size_t c = 0; c < 2; ++c) {
    const Column& column = schema_.column(c);
    if (column.type != ValueType::kInt32) {
      return Status::InvalidArgument(
          "table '" + name_ + "' column '" + column.name + "' is " +
          std::string(ValueTypeName(column.type)) + ", not INT32");
    }
  }
  return NewInt32PairCursor(begin, std::max(begin, end));
}

// ---------------------------------------------------------------------------
// MemTable
// ---------------------------------------------------------------------------

Status MemTable::Insert(const Tuple& tuple) {
  SETM_RETURN_IF_ERROR(CheckArity(tuple));
  size_bytes_ += tuple.SerializedSize(schema());
  rows_.push_back(tuple);
  return Status::OK();
}

std::unique_ptr<TupleIterator> MemTable::Scan() const {
  return std::make_unique<MemTableIterator>(&rows_, &schema());
}

std::unique_ptr<Int32PairCursor> MemTable::NewInt32PairCursor(
    uint64_t begin, uint64_t end) const {
  return std::make_unique<MemInt32PairCursor>(this, begin, end);
}

// ---------------------------------------------------------------------------
// HeapTable
// ---------------------------------------------------------------------------

Result<std::unique_ptr<HeapTable>> HeapTable::Create(
    std::string name, Schema schema, BufferPool* pool,
    TableHeap::PageHook page_hook) {
  auto heap_or = TableHeap::Create(pool, page_hook);
  if (!heap_or.ok()) return heap_or.status();
  return std::unique_ptr<HeapTable>(
      new HeapTable(std::move(name), std::move(schema), pool,
                    std::move(heap_or).value(), std::move(page_hook)));
}

Result<std::unique_ptr<HeapTable>> HeapTable::Open(
    std::string name, Schema schema, BufferPool* pool, PageId first_page,
    uint64_t expected_rows, std::vector<PageId>* chain) {
  auto heap_or = TableHeap::Open(pool, first_page, chain);
  if (!heap_or.ok()) return heap_or.status();
  const uint64_t walked = heap_or.value().live_records();
  if (walked < expected_rows) {
    return Status::Corruption(
        "table '" + name + "': catalog manifest records " +
        std::to_string(expected_rows) + " rows but the heap chain holds " +
        std::to_string(walked));
  }
  if (walked > expected_rows) {
    // Rows appended after the last checkpoint whose dirty pages reached
    // the file before an unclean exit. They are complete records; keep
    // them rather than refusing to open what a crash left behind.
    SETM_LOG(kInfo) << "table '" << name << "': heap chain holds " << walked
                    << " rows, " << walked - expected_rows
                    << " more than the last checkpoint recorded "
                       "(un-checkpointed appends before an unclean exit)";
  }
  return std::unique_ptr<HeapTable>(new HeapTable(
      std::move(name), std::move(schema), pool, std::move(heap_or).value()));
}

Status HeapTable::Insert(const Tuple& tuple) {
  SETM_RETURN_IF_ERROR(CheckArity(tuple));
  scratch_.clear();
  tuple.SerializeTo(schema(), &scratch_);
  return heap_.Insert(scratch_);
}

std::unique_ptr<TupleIterator> HeapTable::Scan() const {
  return std::make_unique<HeapTableIterator>(heap_.Begin(), &schema());
}

std::unique_ptr<Int32PairCursor> HeapTable::NewInt32PairCursor(
    uint64_t begin, uint64_t end) const {
  return std::make_unique<HeapInt32PairCursor>(heap_.Begin(), &name(), begin,
                                               end);
}

Status HeapTable::Truncate() {
  // Start a fresh chain. The old pages are abandoned: the database free
  // list takes them back only when a file is reopened, as pages nothing
  // reaches.
  auto heap_or = TableHeap::Create(pool_, page_hook_);
  if (!heap_or.ok()) return heap_or.status();
  heap_ = std::move(heap_or).value();
  return Status::OK();
}

}  // namespace setm
