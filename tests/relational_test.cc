// Unit tests for src/relational: Value, Schema, Tuple serialization,
// tables, catalog, the Database facade and IntRelation's packed pages.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <memory>
#include <iterator>
#include <string>
#include <utility>
#include <vector>
#include "common/random.h"

#include "relational/catalog.h"
#include "relational/database.h"
#include "relational/int_relation.h"
#include "relational/table.h"
#include "storage/fault_injection.h"
#include "storage/storage_backend.h"

namespace setm {
namespace {

Schema TwoIntSchema() {
  return Schema({Column{"a", ValueType::kInt32}, Column{"b", ValueType::kInt32}});
}

// --------------------------------------------------------------------------
// Value
// --------------------------------------------------------------------------

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value::Int32(-5).AsInt32(), -5);
  EXPECT_EQ(Value::Int64(1LL << 40).AsInt64(), 1LL << 40);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, CrossWidthIntegerEquality) {
  EXPECT_EQ(Value::Int32(7), Value::Int64(7));
  EXPECT_EQ(Value::Int32(7).Hash(), Value::Int64(7).Hash());
  EXPECT_NE(Value::Int32(7), Value::Int64(8));
}

TEST(ValueTest, NumericDoubleComparison) {
  EXPECT_EQ(Value::Int32(2), Value::Double(2.0));
  EXPECT_LT(Value::Double(1.5).Compare(Value::Int32(2)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int32(2)), 0);
}

TEST(ValueTest, LargeIntegersCompareExactly) {
  // Would be equal under double rounding.
  const int64_t a = (1LL << 60) + 1;
  const int64_t b = 1LL << 60;
  EXPECT_GT(Value::Int64(a).Compare(Value::Int64(b)), 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x"), Value::String("x"));
  // Numerics order before strings, never equal.
  EXPECT_LT(Value::Int32(999).Compare(Value::String("0")), 0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int32(42).ToString(), "42");
  EXPECT_EQ(Value::String("ab").ToString(), "'ab'");
}

// --------------------------------------------------------------------------
// Schema
// --------------------------------------------------------------------------

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s({Column{"trans_id", ValueType::kInt32},
            Column{"Item", ValueType::kInt32}});
  EXPECT_EQ(s.FindColumn("TRANS_ID"), std::optional<size_t>(0));
  EXPECT_EQ(s.FindColumn("item"), std::optional<size_t>(1));
  EXPECT_FALSE(s.FindColumn("missing").has_value());
}

TEST(SchemaTest, FixedTupleSizeMatchesPaperArithmetic) {
  // R_2 tuples: (trans_id, item1, item2) = 3 x 4 bytes.
  Schema r2({Column{"trans_id", ValueType::kInt32},
             Column{"item1", ValueType::kInt32},
             Column{"item2", ValueType::kInt32}});
  EXPECT_EQ(r2.FixedTupleSize(), std::optional<size_t>(12));
  Schema with_string({Column{"s", ValueType::kString}});
  EXPECT_FALSE(with_string.FixedTupleSize().has_value());
}

TEST(SchemaTest, IdentFoldLowercases) {
  EXPECT_EQ(IdentFold("SaLeS"), "sales");
  EXPECT_TRUE(IdentEquals("Sales", "SALES"));
  EXPECT_FALSE(IdentEquals("sales", "sale"));
}

// --------------------------------------------------------------------------
// Tuple serialization
// --------------------------------------------------------------------------

TEST(TupleTest, SerializeRoundTripAllTypes) {
  Schema schema({Column{"i", ValueType::kInt32},
                 Column{"l", ValueType::kInt64},
                 Column{"d", ValueType::kDouble},
                 Column{"s", ValueType::kString}});
  Tuple in({Value::Int32(-7), Value::Int64(1LL << 50), Value::Double(0.25),
            Value::String("hello")});
  std::string bytes;
  in.SerializeTo(schema, &bytes);
  EXPECT_EQ(bytes.size(), in.SerializedSize(schema));
  auto out = Tuple::Deserialize(schema, bytes);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), in);
}

TEST(TupleTest, DeserializeTruncatedFails) {
  Schema schema = TwoIntSchema();
  Tuple in({Value::Int32(1), Value::Int32(2)});
  std::string bytes;
  in.SerializeTo(schema, &bytes);
  auto out = Tuple::Deserialize(schema, std::string_view(bytes).substr(0, 5));
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruption());
}

TEST(TupleTest, DeserializeTrailingBytesFails) {
  Schema schema = TwoIntSchema();
  Tuple in({Value::Int32(1), Value::Int32(2)});
  std::string bytes;
  in.SerializeTo(schema, &bytes);
  bytes += "junk";
  EXPECT_TRUE(Tuple::Deserialize(schema, bytes).status().IsCorruption());
}

TEST(TupleTest, ComparatorOrdersByKeys) {
  TupleComparator cmp({1, 0});
  Tuple a({Value::Int32(1), Value::Int32(5)});
  Tuple b({Value::Int32(2), Value::Int32(5)});
  Tuple c({Value::Int32(0), Value::Int32(6)});
  EXPECT_LT(cmp.Compare(a, b), 0);  // equal col1, col0 decides
  EXPECT_LT(cmp.Compare(b, c), 0);  // col1 decides
  EXPECT_EQ(cmp.Compare(a, a), 0);
  EXPECT_TRUE(cmp(a, c));
}

// --------------------------------------------------------------------------
// Tables
// --------------------------------------------------------------------------

TEST(MemTableTest, InsertScanAndSizes) {
  MemTable t("t", TwoIntSchema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Insert(Tuple({Value::Int32(i), Value::Int32(i * 2)})).ok());
  }
  EXPECT_EQ(t.num_rows(), 100u);
  EXPECT_EQ(t.size_bytes(), 800u);  // 100 rows x 8 bytes
  EXPECT_EQ(t.num_pages(), 1u);
  auto it = t.Scan();
  Tuple row;
  int n = 0;
  while (true) {
    auto more = it->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    EXPECT_EQ(row.value(1).AsInt32(), row.value(0).AsInt32() * 2);
    ++n;
  }
  EXPECT_EQ(n, 100);
}

TEST(MemTableTest, ArityMismatchRejected) {
  MemTable t("t", TwoIntSchema());
  EXPECT_TRUE(t.Insert(Tuple({Value::Int32(1)})).IsInvalidArgument());
}

TEST(MemTableTest, TruncateClears) {
  MemTable t("t", TwoIntSchema());
  ASSERT_TRUE(t.Insert(Tuple({Value::Int32(1), Value::Int32(2)})).ok());
  ASSERT_TRUE(t.Truncate().ok());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.size_bytes(), 0u);
}

TEST(HeapTableTest, InsertScanRoundTrip) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 16);
  auto t = HeapTable::Create("h", TwoIntSchema(), &pool);
  ASSERT_TRUE(t.ok());
  const int n = 2000;  // spans several pages (8-byte records)
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        (*t)->Insert(Tuple({Value::Int32(i), Value::Int32(-i)})).ok());
  }
  EXPECT_EQ((*t)->num_rows(), static_cast<uint64_t>(n));
  EXPECT_GT((*t)->num_pages(), 1u);
  auto it = (*t)->Scan();
  Tuple row;
  int i = 0;
  while (true) {
    auto more = it->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    EXPECT_EQ(row.value(0).AsInt32(), i);
    EXPECT_EQ(row.value(1).AsInt32(), -i);
    ++i;
  }
  EXPECT_EQ(i, n);
}

TEST(HeapTableTest, PagesMatchSerializedVolume) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 16);
  auto t = HeapTable::Create("h", TwoIntSchema(), &pool);
  ASSERT_TRUE(t.ok());
  // 8-byte records + 4-byte slots: ~340 records per 4 KiB page.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*t)->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
  }
  EXPECT_EQ((*t)->size_bytes(), 8000u);
  EXPECT_GE((*t)->num_pages(), 3u);
  EXPECT_LE((*t)->num_pages(), 4u);
}

// --------------------------------------------------------------------------
// The typed (INT32, INT32) scan
// --------------------------------------------------------------------------

using Pairs = std::vector<std::pair<int32_t, int32_t>>;

/// Every row of `table` through the Tuple scan.
Pairs TupleScanPairs(const Table& table) {
  Pairs out;
  auto it = table.Scan();
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    out.emplace_back(row.value(0).AsInt32(), row.value(1).AsInt32());
  }
  return out;
}

/// The rows [begin, end) of `table`, every row by default, through
/// ScanInt32Pairs, or its first error.
Result<Pairs> TypedScanPairs(const Table& table, uint64_t begin = 0,
                             uint64_t end = UINT64_MAX) {
  Pairs out;
  Status status = ForEachInt32Pair(
      table, [&out](int32_t a, int32_t b) { out.emplace_back(a, b); },
      begin, end);
  if (!status.ok()) return status;
  return out;
}

TEST(Int32PairScanTest, YieldsTheTupleScansRowsOnBothBackings) {
  const int32_t extremes[] = {INT32_MIN, INT32_MIN + 1, -1, 0, 1,
                              INT32_MAX - 1, INT32_MAX};
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto value = [&]() -> int32_t {
      switch (rng.Uniform(3)) {
        case 0:
          return extremes[rng.Uniform(std::size(extremes))];
        case 1:
          return static_cast<int32_t>(rng.UniformRange(-50, 50));
        default:
          return static_cast<int32_t>(rng.Next());
      }
    };
    // Up to ~2.5 heap pages, a quarter of the rows repeating an earlier one.
    Pairs rows;
    const uint64_t n = rng.Uniform(900);
    for (uint64_t i = 0; i < n; ++i) {
      if (!rows.empty() && rng.Uniform(4) == 0) {
        rows.push_back(rows[rng.Uniform(rows.size())]);
      } else {
        rows.emplace_back(value(), value());
      }
    }
    IoStats stats;
    MemoryBackend backend(&stats);
    BufferPool pool(&backend, 16);
    auto heap = HeapTable::Create("h", TwoIntSchema(), &pool);
    ASSERT_TRUE(heap.ok());
    MemTable mem("m", TwoIntSchema());
    for (const auto& [a, b] : rows) {
      const Tuple row({Value::Int32(a), Value::Int32(b)});
      ASSERT_TRUE(heap.value()->Insert(row).ok());
      ASSERT_TRUE(mem.Insert(row).ok());
    }
    for (const Table* table : {static_cast<const Table*>(heap.value().get()),
                               static_cast<const Table*>(&mem)}) {
      auto typed = TypedScanPairs(*table);
      ASSERT_TRUE(typed.ok()) << typed.status().ToString();
      EXPECT_EQ(typed.value(), rows) << table->name();
      EXPECT_EQ(typed.value(), TupleScanPairs(*table)) << table->name();
      // A row range, its ends anywhere up to past the last row.
      const uint64_t begin = rng.Uniform(n + 2);
      const uint64_t end = rng.Uniform(n + 2);
      auto range = TypedScanPairs(*table, begin, end);
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      const uint64_t from = std::min(begin, n);
      const Pairs want(rows.begin() + static_cast<std::ptrdiff_t>(from),
                       rows.begin() + static_cast<std::ptrdiff_t>(
                                          std::max(from, std::min(end, n))));
      EXPECT_EQ(range.value(), want)
          << table->name() << " [" << begin << ", " << end << ")";
    }
  }
}

TEST(Int32PairScanTest, RecordsOfSevenOrNineBytesAreCorruption) {
  // A (INT32, STRING) heap writes 6 + |s| bytes a record; reopened as two
  // INT32 columns, "ab" reads as a pair and "a" or "abc" is malformed.
  for (const std::string bad : {"a", "abc"}) {
    SCOPED_TRACE(std::to_string(4 + 2 + bad.size()) + "-byte record");
    IoStats stats;
    MemoryBackend backend(&stats);
    BufferPool pool(&backend, 16);
    const Schema string_schema({Column{"a", ValueType::kInt32},
                                Column{"s", ValueType::kString}});
    auto odd = HeapTable::Create("odd", string_schema, &pool);
    ASSERT_TRUE(odd.ok());
    for (const auto& [a, s] : {std::pair<int32_t, std::string>{1, "ab"},
                               std::pair<int32_t, std::string>{2, bad}}) {
      ASSERT_TRUE(
          odd.value()->Insert(Tuple({Value::Int32(a), Value::String(s)})).ok());
    }
    auto sales = HeapTable::Open("sales", TwoIntSchema(), &pool,
                                 odd.value()->first_page(), 2);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    auto cursor = sales.value()->ScanInt32Pairs();
    ASSERT_TRUE(cursor.ok());
    int32_t a = 0;
    int32_t b = 0;
    auto first = cursor.value()->Next(&a, &b);
    ASSERT_TRUE(first.ok() && first.value()) << first.status().ToString();
    EXPECT_EQ(a, 1);
    auto second = cursor.value()->Next(&a, &b);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::kCorruption);
    EXPECT_NE(second.status().message().find("'sales'"), std::string::npos)
        << second.status().ToString();
    // The Tuple scan refuses the same record.
    auto it = sales.value()->Scan();
    Tuple row;
    ASSERT_TRUE(it->Next(&row).ok());
    EXPECT_EQ(it->Next(&row).status().code(), StatusCode::kCorruption);
  }
}

TEST(Int32PairScanTest, OtherColumnTypesAreInvalidArgumentOnBothBackings) {
  struct Shape {
    Schema schema;
    std::string column;
    std::string type;
  };
  const std::vector<Shape> shapes = {
      {Schema({Column{"trans_id", ValueType::kInt64},
               Column{"item", ValueType::kString}}),
       "'trans_id'", "INT64"},
      {Schema({Column{"trans_id", ValueType::kInt32},
               Column{"item", ValueType::kDouble}}),
       "'item'", "DOUBLE"},
      {Schema({Column{"trans_id", ValueType::kInt32}}), "", "(trans_id"},
  };
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 16);
  for (const Shape& shape : shapes) {
    auto heap = HeapTable::Create("h", shape.schema, &pool);
    ASSERT_TRUE(heap.ok());
    MemTable mem("m", shape.schema);
    for (const Table* table : {static_cast<const Table*>(heap.value().get()),
                               static_cast<const Table*>(&mem)}) {
      auto cursor = table->ScanInt32Pairs();
      ASSERT_FALSE(cursor.ok()) << table->name();
      EXPECT_EQ(cursor.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(cursor.status().message().find(shape.column),
                std::string::npos)
          << cursor.status().ToString();
      EXPECT_NE(cursor.status().message().find(shape.type), std::string::npos)
          << cursor.status().ToString();
    }
  }
}

TEST(Int32PairScanTest, MemTableValueOfAnotherTypeIsInvalidArgument) {
  // MemTable::Insert checks arity only, so a row can hold a STRING under
  // an INT32 column; the typed scan refuses it rather than misread it.
  MemTable t("sales", TwoIntSchema());
  ASSERT_TRUE(t.Insert(Tuple({Value::Int32(1), Value::Int32(2)})).ok());
  ASSERT_TRUE(
      t.Insert(Tuple({Value::Int32(1), Value::String("apple")})).ok());
  auto rows = TypedScanPairs(t);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  for (const char* part : {"'sales'", "STRING", "'b'"}) {
    EXPECT_NE(rows.status().message().find(part), std::string::npos)
        << rows.status().ToString();
  }
}

// --------------------------------------------------------------------------
// Catalog & Database
// --------------------------------------------------------------------------

TEST(CatalogTest, CreateGetDrop) {
  Database db;
  Catalog* catalog = db.catalog();
  ASSERT_TRUE(
      catalog->CreateTable("t1", TwoIntSchema(), TableBacking::kMemory).ok());
  ASSERT_TRUE(
      catalog->CreateTable("t2", TwoIntSchema(), TableBacking::kHeap).ok());
  EXPECT_TRUE(catalog->HasTable("T1"));  // case-insensitive
  auto t = catalog->GetTable("t1");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->name(), "t1");
  EXPECT_EQ(catalog->TableNames(),
            (std::vector<std::string>{"t1", "t2"}));
  ASSERT_TRUE(catalog->DropTable("t1").ok());
  EXPECT_FALSE(catalog->HasTable("t1"));
  EXPECT_TRUE(catalog->GetTable("t1").status().IsNotFound());
}

TEST(CatalogTest, DuplicateNameRejected) {
  Database db;
  ASSERT_TRUE(db.catalog()
                  ->CreateTable("t", TwoIntSchema(), TableBacking::kMemory)
                  .ok());
  auto dup =
      db.catalog()->CreateTable("T", TwoIntSchema(), TableBacking::kMemory);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, HeapTableIoShowsUpInLedger) {
  Database db;
  auto t = db.catalog()->CreateTable("t", TwoIntSchema(), TableBacking::kHeap);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(
        t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
  }
  EXPECT_GT(db.io_stats()->pages_allocated, 5u);
}

TEST(DatabaseTest, FileBackedDatabase) {
  DatabaseOptions options;
  options.file_path = testing::TempDir() + "/setm_db_test.db";
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto t = (*db)->catalog()->CreateTable("t", TwoIntSchema(),
                                         TableBacking::kHeap);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t.value()->Insert(Tuple({Value::Int32(1), Value::Int32(2)})).ok());
  EXPECT_EQ(t.value()->num_rows(), 1u);
  std::remove(options.file_path.c_str());
}

TEST(DatabaseTest, OpenBadPathFails) {
  DatabaseOptions options;
  options.file_path = "/nonexistent-dir-xyz/db.bin";
  EXPECT_FALSE(Database::Open(options).ok());
}

// --------------------------------------------------------------------------
// IntRelation
// --------------------------------------------------------------------------

/// `n` distinct rows of `width` ints.
std::vector<int32_t> DistinctRows(size_t width, size_t n) {
  std::vector<int32_t> rows(width * n);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<int32_t>(i * 7 + 1);
  }
  return rows;
}

/// Appends `rows` in calls of 1, 2, 3, ... rows, so calls straddle pages.
Status AppendInSteps(IntRelation* relation, const std::vector<int32_t>& rows) {
  const size_t width = relation->width();
  const size_t n = rows.size() / width;
  for (size_t done = 0, step = 1; done < n; done += step, ++step) {
    step = std::min(step, n - done);
    SETM_RETURN_IF_ERROR(relation->Append(rows.data() + done * width, step));
  }
  return Status::OK();
}

/// Scans `relation` to the end, or to the first error.
Result<std::vector<int32_t>> ScanAll(const IntRelation& relation) {
  std::vector<int32_t> out;
  auto cursor = relation.Scan();
  const int32_t* row = nullptr;
  while (true) {
    auto more = cursor->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) return out;
    out.insert(out.end(), row, row + relation.width());
  }
}

// 0 rows, one full page, one page and a row, several pages: each width
// round-trips through a 2-frame pool, so every page is evicted before it is
// read. Each page is allocated and written once, and ||R|| is the same
// formula under kMemory.
TEST(IntRelationTest, PackedPagesRoundTripAtEveryWidth) {
  for (size_t width = 2; width <= 9; ++width) {
    const size_t per_page = IntRelation::RowsPerPage(width);
    EXPECT_EQ(per_page, (kPageSize - 8) / (4 * width));
    for (size_t n : {size_t{0}, per_page, per_page + 1, 4 * per_page + 5}) {
      SCOPED_TRACE("width " + std::to_string(width) + ", " +
                   std::to_string(n) + " rows");
      const std::vector<int32_t> rows = DistinctRows(width, n);
      IoStats stats;
      MemoryBackend backend(&stats);
      BufferPool pool(&backend, 2);
      auto heap = IntRelation::CreateInPool(&pool, width);
      ASSERT_TRUE(heap.ok()) << heap.status().ToString();
      ASSERT_TRUE(AppendInSteps(heap.value().get(), rows).ok());
      ASSERT_TRUE(heap.value()->Finish().ok());
      const uint64_t pages = (n + per_page - 1) / per_page;
      EXPECT_EQ(heap.value()->num_rows(), n);
      EXPECT_EQ(heap.value()->num_pages(), pages);
      EXPECT_EQ(stats.pages_allocated, pages);
      EXPECT_EQ(stats.page_reads, 0u);  // appending never reads back
      auto scanned = ScanAll(*heap.value());
      ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
      EXPECT_EQ(scanned.value(), rows);
      EXPECT_LE(stats.page_reads, pages);  // one fetch per page
      ASSERT_TRUE(pool.FlushAll().ok());
      EXPECT_EQ(stats.page_writes, pages);  // each page exactly once

      auto memory = IntRelation::CreateInPool(nullptr, width);
      ASSERT_TRUE(memory.ok());
      ASSERT_TRUE(AppendInSteps(memory.value().get(), rows).ok());
      ASSERT_TRUE(memory.value()->Finish().ok());
      EXPECT_EQ(memory.value()->num_pages(), pages);
      auto from_memory = ScanAll(*memory.value());
      ASSERT_TRUE(from_memory.ok());
      EXPECT_EQ(from_memory.value(), rows);
    }
  }
}

// A page header whose row count or width is not what the relation wrote
// there is Corruption at that page, never rows read past the page.
TEST(IntRelationTest, CorruptPageHeaderIsCorruption) {
  constexpr size_t kWidth = 3;
  const size_t per_page = IntRelation::RowsPerPage(kWidth);
  struct Damage {
    size_t field;  // 0: row count, 1: width
    uint32_t value;
  };
  for (Damage damage : {Damage{0, 0}, Damage{0, uint32_t(per_page - 1)},
                        Damage{0, uint32_t(per_page + 1)},
                        Damage{0, UINT32_MAX}, Damage{1, kWidth + 1},
                        Damage{1, 0}}) {
    SCOPED_TRACE("field " + std::to_string(damage.field) + " = " +
                 std::to_string(damage.value));
    MemoryBackend backend;
    BufferPool pool(&backend, 2);
    auto relation = IntRelation::CreateInPool(&pool, kWidth);
    ASSERT_TRUE(relation.ok());
    const std::vector<int32_t> rows = DistinctRows(kWidth, 3 * per_page);
    ASSERT_TRUE(relation.value()->Append(rows.data(), 3 * per_page).ok());
    ASSERT_TRUE(relation.value()->Finish().ok());
    ASSERT_EQ(backend.NumPages(), 3u);  // the relation's pages 0, 1, 2
    {
      auto guard = pool.FetchPage(1);
      ASSERT_TRUE(guard.ok());
      // The header: a uint32 row count, then a uint32 width.
      guard.value().page()->As<uint32_t>()[damage.field] = damage.value;
      guard.value().MarkDirty();
    }
    auto cursor = relation.value()->Scan();
    const int32_t* row = nullptr;
    for (size_t i = 0; i < per_page; ++i) {
      auto more = cursor->Next(&row);
      ASSERT_TRUE(more.ok() && more.value()) << i;
    }
    auto more = cursor->Next(&row);
    ASSERT_FALSE(more.ok());
    EXPECT_EQ(more.status().code(), StatusCode::kCorruption)
        << more.status().ToString();
  }
}

// Every I/O error surfaces as an error from Append, Finish or the scan's
// Next, never as a relation that scans short: the backend fails at each
// operation in turn of a write-then-scan through a 2-frame pool.
TEST(IntRelationTest, IoErrorsSurfaceFromAppendFinishAndNext) {
  constexpr size_t kWidth = 4;
  const size_t n = 3 * IntRelation::RowsPerPage(kWidth) + 10;
  const std::vector<int32_t> rows = DistinctRows(kWidth, n);
  bool failed_in[3] = {false, false, false};  // Append, Finish, Next
  for (uint64_t budget = 0;; ++budget) {
    SCOPED_TRACE("failing after " + std::to_string(budget) + " ops");
    MemoryBackend real;
    FaultInjectionBackend flaky(&real, budget);
    BufferPool pool(&flaky, 2);
    auto relation = IntRelation::CreateInPool(&pool, kWidth);
    ASSERT_TRUE(relation.ok());
    // The step that failed, or 3 when none did.
    const auto write_then_scan = [&]() -> size_t {
      Status s = AppendInSteps(relation.value().get(), rows);
      if (!s.ok()) {
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        return 0;
      }
      s = relation.value()->Finish();
      if (!s.ok()) {
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        return 1;
      }
      auto scanned = ScanAll(*relation.value());
      if (!scanned.ok()) {
        EXPECT_TRUE(scanned.status().IsIOError())
            << scanned.status().ToString();
        return 2;
      }
      EXPECT_EQ(scanned.value(), rows);  // no error, so every row
      return 3;
    };
    const size_t failed = write_then_scan();
    flaky.Heal();  // the pool's flush on destruction succeeds
    if (failed == 3) break;  // the budget now covers every op
    failed_in[failed] = true;
  }
  EXPECT_TRUE(failed_in[0]);
  EXPECT_TRUE(failed_in[1]);
  EXPECT_TRUE(failed_in[2]);
}

// Rows reach a scan only once the relation is sealed: scanning before
// Finish() is an error, not a stream missing the last page's rows, and
// appending after it is an error too. Both backings.
TEST(IntRelationTest, ScanBeforeFinishIsAnError) {
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    Database db;
    auto relation = IntRelation::CreateInPool(
        backing == TableBacking::kHeap ? db.pool() : nullptr, 2);
    ASSERT_TRUE(relation.ok());
    const std::vector<int32_t> rows = DistinctRows(2, 10);
    ASSERT_TRUE(relation.value()->Append(rows.data(), 10).ok());
    auto early = ScanAll(*relation.value());
    EXPECT_FALSE(early.ok());
    ASSERT_TRUE(relation.value()->Finish().ok());
    EXPECT_FALSE(relation.value()->Append(rows.data(), 1).ok());
    auto scanned = ScanAll(*relation.value());
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(scanned.value(), rows);
  }
}

// --------------------------------------------------------------------------
// GroupedRelation and its page codec
// --------------------------------------------------------------------------

/// One transaction of a grouped relation.
struct Txn {
  int32_t tid;
  std::vector<int32_t> ids;
};

/// Appends `txns` to `relation` and seals it.
Status AppendAll(GroupedRelation* relation, const std::vector<Txn>& txns) {
  for (const Txn& t : txns) {
    SETM_RETURN_IF_ERROR(relation->Append(t.tid, t.ids.data(), t.ids.size()));
  }
  return relation->Finish();
}

/// Streams `cursor` to the end, or to the first error.
Result<std::vector<Txn>> Drain(GroupCursor* cursor) {
  std::vector<Txn> out;
  IdGroup group;
  while (true) {
    auto more = cursor->Next(&group);
    if (!more.ok()) return more.status();
    if (!more.value()) return out;
    out.push_back(Txn{group.tid, std::vector<int32_t>(group.begin, group.end)});
  }
}

/// `txns` without its empty transactions, which a relation does not store.
std::vector<Txn> NonEmpty(const std::vector<Txn>& txns) {
  std::vector<Txn> out;
  for (const Txn& t : txns) {
    if (!t.ids.empty()) out.push_back(t);
  }
  return out;
}

bool operator==(const Txn& a, const Txn& b) {
  return a.tid == b.tid && a.ids == b.ids;
}

/// A random relation: ascending trans_ids from a random start (negative,
/// INT32_MIN or near INT32_MAX), each with a few ids, a long run of ids, or
/// none; ids ascending with repeats, spanning int32 at random.
std::vector<Txn> RandomTxns(Rng* rng) {
  std::vector<Txn> txns;
  int64_t tid = rng->Bernoulli(0.2)   ? int64_t{INT32_MIN}
                : rng->Bernoulli(0.2) ? int64_t{INT32_MAX} - 40
                                      : rng->UniformRange(-1000, 1000);
  const size_t n = rng->Uniform(60);
  for (size_t t = 0; t < n && tid <= INT32_MAX; ++t) {
    Txn txn{static_cast<int32_t>(tid), {}};
    const size_t size = rng->Bernoulli(0.05)  ? 1500 + rng->Uniform(3000)
                        : rng->Bernoulli(0.1) ? 0
                                              : 1 + rng->Uniform(12);
    const bool wide = rng->Bernoulli(0.3);
    int64_t id = wide ? int64_t{INT32_MIN} + rng->Uniform(4)
                      : rng->UniformRange(-50, 50);
    for (size_t i = 0; i < size && id <= INT32_MAX; ++i) {
      txn.ids.push_back(static_cast<int32_t>(id));
      if (!rng->Bernoulli(0.2)) {  // else the next id repeats this one
        id += wide ? rng->UniformRange(1, int64_t{1} << 30) : rng->Uniform(9);
      }
    }
    txns.push_back(std::move(txn));
    tid += 1 + rng->Uniform(rng->Bernoulli(0.1) ? 100000 : 3);
  }
  return txns;
}

// Groups round-trip through both backings, which hold identical page
// images, and a last scan streams what a scan does. The fixed cases are an
// empty relation, one group, a transaction longer than a page (continued
// on the next pages with the same trans_id), equal adjacent ids, and
// INT32_MIN, INT32_MAX and negative trans_ids and ids; 200 seeded random
// relations follow. The heap side runs in a 2-frame pool, so most pages
// are evicted before they are read.
TEST(GroupedRelationTest, GroupsRoundTripOnBothBackings) {
  std::vector<int32_t> long_run;
  for (int32_t i = 0; i < 5000; ++i) long_run.push_back(i * 1000);
  std::vector<std::vector<Txn>> cases = {
      {},
      {{7, {3}}},
      {{-4, {1, 2}}, {0, long_run}, {1, {5, 5, 5}}},
      {{INT32_MIN, {INT32_MIN, INT32_MIN, -1, 0, INT32_MAX}},
       {-1, {-7, -7}},
       {INT32_MAX, {INT32_MAX, INT32_MAX}}},
  };
  Rng rng(36);
  for (int i = 0; i < 200; ++i) cases.push_back(RandomTxns(&rng));
  size_t continued = 0;
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const std::vector<Txn>& txns = cases[c];
    uint64_t ids = 0;
    for (const Txn& t : txns) ids += t.ids.size();
    GroupedRelation memory(nullptr, "R_1");
    ASSERT_TRUE(AppendAll(&memory, txns).ok());
    MemoryBackend backend;
    BufferPool pool(&backend, 2);
    auto heap = std::make_unique<GroupedRelation>(&pool, "R_1");
    ASSERT_TRUE(AppendAll(heap.get(), txns).ok());
    EXPECT_EQ(memory.num_rows(), ids);
    EXPECT_EQ(heap->num_rows(), ids);
    ASSERT_EQ(memory.num_pages(), heap->num_pages());
    if (ids == 0) {
      EXPECT_EQ(memory.num_pages(), 0u);
    }
    Page from_memory;
    Page from_heap;
    for (size_t i = 0; i < memory.num_pages(); ++i) {
      ASSERT_TRUE(memory.pages().Copy(i, &from_memory).ok());
      ASSERT_TRUE(heap->pages().Copy(i, &from_heap).ok());
      EXPECT_EQ(std::memcmp(from_memory.data, from_heap.data, kPageSize), 0)
          << "page " << i;
    }
    const std::vector<Txn> expected = NonEmpty(txns);
    auto scanned = Drain(memory.Scan().get());
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_TRUE(scanned.value() == expected);
    scanned = Drain(heap->Scan().get());
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_TRUE(scanned.value() == expected);
    for (const Txn& t : expected) continued += t.ids.size() > 1500;
    scanned = Drain(GroupedRelation::LastScan(std::move(heap)).get());
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_TRUE(scanned.value() == expected);
    EXPECT_EQ(backend.LivePages(), 0u);  // the last scan released each page
  }
  EXPECT_GT(continued, 3u);
}

// Groups go in a transaction at a time, in trans_id order, with ascending
// ids; a relation is scanned only once sealed and takes no group after.
TEST(GroupedRelationTest, AppendsOutOfOrderAndScansBeforeFinishFail) {
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    Database db;
    auto relation = GroupedRelation::Create(&db, backing, "R_2");
    const std::vector<int32_t> ids = {1, 2, 2, 9};
    ASSERT_TRUE(relation->Append(5, ids.data(), ids.size()).ok());
    EXPECT_FALSE(relation->Append(5, ids.data(), 1).ok());
    EXPECT_FALSE(relation->Append(4, ids.data(), 1).ok());
    const std::vector<int32_t> descending = {3, 2};
    EXPECT_FALSE(relation->Append(6, descending.data(), 2).ok());
    EXPECT_FALSE(Drain(relation->Scan().get()).ok());
    ASSERT_TRUE(relation->Finish().ok());
    EXPECT_FALSE(relation->Append(7, ids.data(), 1).ok());
    auto scanned = Drain(relation->Scan().get());
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_TRUE(scanned.value() == (std::vector<Txn>{{5, ids}}));
  }
}

// Every I/O error surfaces from Append, Finish or the scan's Next, never as
// a relation that scans short: the backend fails at each operation in turn
// of a write-then-scan through a 2-frame pool.
TEST(GroupedRelationTest, IoErrorsSurfaceFromAppendFinishAndNext) {
  std::vector<Txn> txns;
  for (int32_t tid = 0; tid < 2500; ++tid) {
    txns.push_back({tid, {tid, tid + 1, tid + 300}});
  }
  bool failed_in[3] = {false, false, false};  // Append, Finish, Next
  for (uint64_t budget = 0;; ++budget) {
    SCOPED_TRACE("failing after " + std::to_string(budget) + " ops");
    MemoryBackend real;
    FaultInjectionBackend flaky(&real, budget);
    BufferPool pool(&flaky, 2);
    GroupedRelation relation(&pool, "R_2");
    // The step that failed, or 3 when none did.
    const auto write_then_scan = [&]() -> size_t {
      for (const Txn& t : txns) {
        Status s = relation.Append(t.tid, t.ids.data(), t.ids.size());
        if (!s.ok()) {
          EXPECT_TRUE(s.IsIOError()) << s.ToString();
          return 0;
        }
      }
      Status s = relation.Finish();
      if (!s.ok()) {
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        return 1;
      }
      auto scanned = Drain(relation.Scan().get());
      if (!scanned.ok()) {
        EXPECT_TRUE(scanned.status().IsIOError())
            << scanned.status().ToString();
        return 2;
      }
      EXPECT_TRUE(scanned.value() == txns);  // no error, so every group
      return 3;
    };
    const size_t failed = write_then_scan();
    flaky.Heal();  // the pool's flush on destruction succeeds
    if (failed == 3) break;  // the budget now covers every op
    failed_in[failed] = true;
  }
  EXPECT_TRUE(failed_in[0]);
  EXPECT_TRUE(failed_in[1]);
  EXPECT_TRUE(failed_in[2]);
}

/// A page image: the header (bytes of groups, ids) and then `groups`.
std::vector<uint8_t> PageImage(const std::vector<uint8_t>& groups,
                               uint32_t ids) {
  std::vector<uint8_t> page(kPageSize, 0);
  const uint32_t header[2] = {static_cast<uint32_t>(groups.size()), ids};
  std::memcpy(page.data(), header, sizeof(header));
  std::copy(groups.begin(), groups.end(), page.begin() + sizeof(header));
  return page;
}

/// Decodes `page` after `last`.
Status DecodeAfter(const std::vector<uint8_t>& page, GroupPage::Position last) {
  std::vector<GroupPage::Group> groups;
  std::vector<int32_t> ids;
  return GroupPage::Decode(page.data(), page.size(), &last, &groups, &ids);
}

// Each way a page can disagree with the format is Corruption, and a
// well-formed page decodes. Groups are written by hand: zigzag trans_id,
// n, zigzag first id, deltas (zigzag 5 is 10, 3 is 6, 1 is 2).
TEST(GroupPageTest, EachMalformedPageIsCorruption) {
  const GroupPage::Position none;
  const GroupPage::Position after_5 = {true, 5, 4};  // tid 5, last id 4
  // Transaction 5 with ids {1, 3}; then 6 with {1}.
  const std::vector<uint8_t> good = {10, 2, 2, 2, 12, 1, 2};
  EXPECT_TRUE(DecodeAfter(PageImage(good, 3), none).ok());
  struct Bad {
    std::string what;  // also a part of the message it must give
    std::vector<uint8_t> page;
    GroupPage::Position last;
  };
  std::vector<uint8_t> huge_header = PageImage(good, 3);
  const uint32_t too_many_bytes = GroupPage::kCapacity + 1;
  std::memcpy(huge_header.data(), &too_many_bytes, sizeof(too_many_bytes));
  const std::vector<Bad> bad = {
      {"trans_id 3 descends after 5", PageImage({10, 1, 2, 6, 1, 2}, 2),
       none},
      {"trans_id 3 descends after 5", PageImage({6, 1, 2}, 1), after_5},
      {"id 3 descends after 4", PageImage({10, 1, 6}, 1), after_5},
      {"repeats within a page", PageImage({10, 1, 2, 10, 1, 4}, 2), none},
      {"pass INT32_MAX",
       PageImage({10, 2, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F, 1}, 2), none},
      {"varint overruns the page", PageImage({10, 0x81}, 0), none},
      {"exceeds 32 bits", PageImage({0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1, 2}, 1),
       none},
      {"group of 5 ids overruns the page", PageImage({10, 5, 2, 1}, 5), none},
      {"empty group", PageImage({10, 0, 12, 1, 2}, 1), none},
      {"holds no group", PageImage({}, 0), none},
      {"header counts 4 ids", PageImage(good, 4), none},
      {"bytes of groups overrun the page", huge_header, none},
      {"has no header", std::vector<uint8_t>(5, 0), none},
  };
  for (const Bad& b : bad) {
    SCOPED_TRACE(b.what);
    const Status status = DecodeAfter(b.page, b.last);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_NE(status.message().find(b.what), std::string::npos)
        << status.ToString();
  }
}

// A damaged page of a sealed relation is Corruption naming the relation
// and the page when a scan reaches it, after the transactions before it.
TEST(GroupedRelationTest, DamagedPageIsCorruptionNamingTheRelation) {
  MemoryBackend backend;
  BufferPool pool(&backend, 4);
  GroupedRelation relation(&pool, "R_3");
  std::vector<Txn> txns;
  for (int32_t tid = 0; tid < 3000; ++tid) txns.push_back({tid, {tid, tid}});
  ASSERT_TRUE(AppendAll(&relation, txns).ok());
  ASSERT_GE(relation.num_pages(), 3u);
  {
    auto guard = pool.FetchPage(1);  // the relation's second page
    ASSERT_TRUE(guard.ok());
    guard.value().page()->As<uint32_t>()[1] += 1;  // the header's ids
    guard.value().MarkDirty();
  }
  auto cursor = relation.Scan();
  IdGroup group;
  size_t read = 0;
  Result<bool> more = true;
  while ((more = cursor->Next(&group)).ok() && more.value()) ++read;
  ASSERT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsCorruption()) << more.status().ToString();
  EXPECT_NE(more.status().message().find("R_3 page 1"), std::string::npos)
      << more.status().ToString();
  EXPECT_GT(read, 0u);
  EXPECT_LT(read, txns.size());
}

// The decoder's mutation loop: 20,000 copies of encoded pages, each with a
// few bytes flipped or cut short, decode to OK or Corruption and never
// read past the image, which sits in a buffer of exactly its length so
// that AddressSanitizer sees any over-read.
TEST(GroupPageTest, MutatedPagesDecodeOrAreCorruption) {
  Rng rng(8);
  std::vector<std::vector<uint8_t>> pages;
  for (int r = 0; r < 6; ++r) {
    GroupedRelation relation(nullptr, "R");
    ASSERT_TRUE(AppendAll(&relation, RandomTxns(&rng)).ok());
    Page page;
    for (size_t i = 0; i < relation.num_pages(); ++i) {
      ASSERT_TRUE(relation.pages().Copy(i, &page).ok());
      const uint8_t* bytes = reinterpret_cast<const uint8_t*>(page.data);
      pages.emplace_back(bytes, bytes + kPageSize);
    }
  }
  ASSERT_GE(pages.size(), 6u);
  size_t corrupt = 0;
  size_t decoded = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::vector<uint8_t>& source = pages[rng.Uniform(pages.size())];
    uint32_t used;
    std::memcpy(&used, source.data(), sizeof(used));
    // Mostly the header and groups; at times a short image.
    const size_t size = rng.Bernoulli(0.3)
                            ? rng.Uniform(GroupPage::kHeaderSize + used + 1)
                            : kPageSize;
    std::vector<uint8_t> image(source.begin(), source.begin() + size);
    const size_t flips = rng.Bernoulli(0.3) ? 0 : 1 + rng.Uniform(3);
    for (size_t f = 0; f < flips && size > 0; ++f) {
      const size_t at =
          rng.Uniform(std::min(size, GroupPage::kHeaderSize + used));
      image[at] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    std::unique_ptr<uint8_t[]> exact(new uint8_t[size]);
    if (size > 0) std::memcpy(exact.get(), image.data(), size);
    GroupPage::Position last;
    std::vector<GroupPage::Group> groups;
    std::vector<int32_t> ids;
    const Status status =
        GroupPage::Decode(exact.get(), size, &last, &groups, &ids);
    if (status.ok()) {
      ++decoded;
    } else {
      ASSERT_TRUE(status.IsCorruption()) << status.ToString();
      ++corrupt;
    }
  }
  EXPECT_GT(corrupt, 1000u);
  EXPECT_GT(decoded, 1000u);
}

}  // namespace
}  // namespace setm
