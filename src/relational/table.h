#ifndef SETM_RELATIONAL_TABLE_H_
#define SETM_RELATIONAL_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "storage/table_heap.h"

namespace setm {

/// Forward cursor over a relation of two INT32 columns, SALES's
/// (trans_id, item) shape: each row's two values in storage order, read
/// in place from the heap record or the MemTable row, with no Tuple or
/// Value built per row.
class Int32PairCursor {
 public:
  virtual ~Int32PairCursor() = default;

  /// The next row's values; false at the end. A heap record that is not
  /// exactly 8 bytes is Corruption and a MemTable value that is not INT32
  /// InvalidArgument, each naming the table.
  virtual Result<bool> Next(int32_t* first, int32_t* second) = 0;
};

/// A named relation. Two physical representations exist:
///  * MemTable  — a row vector; zero I/O, used for small relations like the
///                count relations C_k ("small enough to be kept in memory",
///                Section 4.3) and for tests;
///  * HeapTable — a slotted-page TableHeap behind a buffer pool, so scans
///                and inserts show up in the IoStats ledger; used for SALES
///                and the intermediate relations R_k.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  virtual ~Table() = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Unlogged tables trade durability for write speed: their pages bypass
  /// the write-ahead log, and after a restart the table reopens empty (name
  /// and schema only). The natural fit for SETM's intermediate relations
  /// R_k / C_k, which are dropped at the end of every run anyway.
  bool unlogged() const { return unlogged_; }
  void set_unlogged(bool unlogged) { unlogged_ = unlogged; }

  /// Appends a row (validated against the schema arity).
  virtual Status Insert(const Tuple& tuple) = 0;

  /// Full-scan iterator in storage order.
  virtual std::unique_ptr<TupleIterator> Scan() const = 0;

  /// The typed scan of a relation of two INT32 columns, in storage order
  /// and through the same pages as Scan(): its rows [begin, end), the
  /// rows up to the last when `end` is past it. A MemTable starts at row
  /// `begin`; a HeapTable reads past the records before it.
  /// InvalidArgument, naming the column and its type, unless the schema is
  /// exactly two INT32 columns.
  Result<std::unique_ptr<Int32PairCursor>> ScanInt32Pairs(
      uint64_t begin = 0, uint64_t end = UINT64_MAX) const;

  /// Number of live rows.
  virtual uint64_t num_rows() const = 0;

  /// Total serialized size of the rows in bytes (the "size in Kbytes"
  /// of Figure 5 is size_bytes() / 1024).
  virtual uint64_t size_bytes() const = 0;

  /// Pages the relation occupies, ceil(size_bytes / kPageSize) for memory
  /// tables, the real chain length for heap tables — the paper's ||R||.
  virtual uint64_t num_pages() const = 0;

  /// Removes all rows.
  virtual Status Truncate() = 0;

 protected:
  /// ScanInt32Pairs' cursor, once the schema is checked.
  virtual std::unique_ptr<Int32PairCursor> NewInt32PairCursor(
      uint64_t begin, uint64_t end) const = 0;

  Status CheckArity(const Tuple& tuple) const {
    if (tuple.NumValues() != schema_.NumColumns()) {
      return Status::InvalidArgument(
          "tuple arity " + std::to_string(tuple.NumValues()) +
          " does not match schema " + schema_.ToString());
    }
    return Status::OK();
  }

 private:
  std::string name_;
  Schema schema_;
  bool unlogged_ = false;
};

/// In-memory row-vector table.
class MemTable : public Table {
 public:
  MemTable(std::string name, Schema schema)
      : Table(std::move(name), std::move(schema)) {}

  Status Insert(const Tuple& tuple) override;
  std::unique_ptr<TupleIterator> Scan() const override;
  uint64_t num_rows() const override { return rows_.size(); }
  uint64_t size_bytes() const override { return size_bytes_; }
  uint64_t num_pages() const override {
    return (size_bytes_ + kPageSize - 1) / kPageSize;
  }
  Status Truncate() override {
    rows_.clear();
    size_bytes_ = 0;
    return Status::OK();
  }

  /// Direct row access for in-memory algorithms (sorting C_k, lookups).
  const std::vector<Tuple>& rows() const { return rows_; }
  std::vector<Tuple>* mutable_rows() { return &rows_; }

 protected:
  std::unique_ptr<Int32PairCursor> NewInt32PairCursor(
      uint64_t begin, uint64_t end) const override;

 private:
  std::vector<Tuple> rows_;
  uint64_t size_bytes_ = 0;
};

/// Calls fn(first, second) for each row [begin, end) of a relation of two
/// INT32 columns, in storage order, through one ScanInt32Pairs cursor; the
/// cursor's error, or the schema's, ends the scan.
template <typename Fn>
Status ForEachInt32Pair(const Table& table, Fn fn, uint64_t begin = 0,
                        uint64_t end = UINT64_MAX) {
  auto cursor_or = table.ScanInt32Pairs(begin, end);
  if (!cursor_or.ok()) return cursor_or.status();
  Int32PairCursor& cursor = *cursor_or.value();
  int32_t first = 0;
  int32_t second = 0;
  while (true) {
    auto more = cursor.Next(&first, &second);
    if (!more.ok()) return more.status();
    if (!more.value()) return Status::OK();
    fn(first, second);
  }
}

/// Buffer-pool-backed table over a slotted-page heap.
class HeapTable : public Table {
 public:
  /// Creates an empty heap table in `pool`'s backend. `page_hook`, if set,
  /// observes every page the table's chain ever acquires (including across
  /// Truncate) — the database passes its unlogged-page tagger here.
  static Result<std::unique_ptr<HeapTable>> Create(
      std::string name, Schema schema, BufferPool* pool,
      TableHeap::PageHook page_hook = nullptr);

  /// Re-attaches to an existing page chain (reopening a persisted table).
  /// `expected_rows` (from the catalog manifest) is cross-checked against
  /// the chain walk's live-record count. Fewer rows than the manifest
  /// promises is Corruption — heap chains only grow between checkpoints, so
  /// shrinkage means the file lost data. *More* rows is the signature of an
  /// unclean exit after appends whose dirty pages were evicted to disk:
  /// those rows are intact, so the walk's counts win and the table opens
  /// (logged, not fatal — a crash must not make the file unopenable).
  /// `chain`, if set, receives the chain's page ids from that walk.
  static Result<std::unique_ptr<HeapTable>> Open(
      std::string name, Schema schema, BufferPool* pool, PageId first_page,
      uint64_t expected_rows, std::vector<PageId>* chain = nullptr);

  Status Insert(const Tuple& tuple) override;
  std::unique_ptr<TupleIterator> Scan() const override;
  uint64_t num_rows() const override { return heap_.live_records(); }
  /// Delegated to the heap's live-byte counter, which Open() rederives
  /// from the chain itself — never stale relative to the stored rows.
  uint64_t size_bytes() const override { return heap_.live_bytes(); }
  uint64_t num_pages() const override { return heap_.num_pages(); }
  Status Truncate() override;

  /// Page-chain endpoints, serialized into the catalog manifest so the
  /// table can be reopened by a later process.
  PageId first_page() const { return heap_.first_page(); }
  PageId last_page() const { return heap_.last_page(); }

  /// Appends the full page chain to `*out` — lets DropTable hand the pages
  /// to the database free list instead of leaking them in the file.
  Status AppendChainPages(std::vector<PageId>* out) const {
    return heap_.AppendChainPages(out);
  }

 protected:
  std::unique_ptr<Int32PairCursor> NewInt32PairCursor(
      uint64_t begin, uint64_t end) const override;

 private:
  HeapTable(std::string name, Schema schema, BufferPool* pool, TableHeap heap,
            TableHeap::PageHook page_hook = nullptr)
      : Table(std::move(name), std::move(schema)),
        pool_(pool),
        heap_(std::move(heap)),
        page_hook_(std::move(page_hook)) {}

  BufferPool* pool_;
  TableHeap heap_;
  /// Kept so Truncate's fresh chain is tagged like the original.
  TableHeap::PageHook page_hook_;
  mutable std::string scratch_;
};

}  // namespace setm

#endif  // SETM_RELATIONAL_TABLE_H_
