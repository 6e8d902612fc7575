// Failure-injection tests: I/O errors at the page layer must surface as
// clean Status errors through every layer above it — no crashes, no
// silent truncation.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/setm_pipeline.h"
#include "exec/exec_context.h"
#include "exec/external_sort.h"
#include "index/bplus_tree.h"
#include "relational/int_relation.h"
#include "relational/table.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/table_heap.h"

namespace setm {
namespace {

TEST(FaultInjectionTest, BackendFailsAfterBudget) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 2);
  ASSERT_TRUE(flaky.AllocatePage().ok());
  ASSERT_TRUE(flaky.AllocatePage().ok());
  auto third = flaky.AllocatePage();
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsIOError());
  // Healing restores service.
  flaky.Heal();
  EXPECT_TRUE(flaky.AllocatePage().ok());
}

TEST(FaultInjectionTest, BufferPoolPropagatesReadErrors) {
  IoStats stats;
  MemoryBackend real(&stats);
  PageId id;
  {
    BufferPool warm(&real, 4);
    auto guard = warm.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard.value().id();
  }
  FaultInjectionBackend flaky(&real, 0);
  BufferPool pool(&flaky, 4);
  auto fetch = pool.FetchPage(id);
  ASSERT_FALSE(fetch.ok());
  EXPECT_TRUE(fetch.status().IsIOError());
}

// Regression: a failed dirty write-back during eviction used to orphan the
// victim frame (popped from the LRU, never freed or re-enqueued), silently
// shrinking the pool by one frame per failure. The pool must survive any
// number of failed evictions at full capacity.
TEST(FaultInjectionTest, VictimWriteBackFailureKeepsPoolCapacity) {
  constexpr size_t kFrames = 4;
  IoStats stats;
  MemoryBackend real(&stats);
  // Enough backing pages for one pool-full of dirty pages + replacements.
  for (size_t i = 0; i < 2 * kFrames; ++i) ASSERT_TRUE(real.AllocatePage().ok());

  // Budget covers exactly the initial reads; the eviction write-backs fail.
  FaultInjectionBackend flaky(&real, kFrames);
  BufferPool pool(&flaky, kFrames);
  for (size_t i = 0; i < kFrames; ++i) {
    auto guard = pool.FetchPage(static_cast<PageId>(i));
    ASSERT_TRUE(guard.ok());
    guard.value().MarkDirty();
  }

  // Each fetch of an uncached page needs an eviction whose write-back fails.
  // If the victim leaked, later attempts would shift from IOError to
  // ResourceExhausted as the pool ran out of frames.
  for (size_t attempt = 0; attempt < 2 * kFrames; ++attempt) {
    auto fetch = pool.FetchPage(static_cast<PageId>(kFrames));
    ASSERT_FALSE(fetch.ok());
    EXPECT_TRUE(fetch.status().IsIOError()) << fetch.status().ToString();
  }

  // After healing, the pool must still serve `capacity` concurrent pins.
  flaky.Heal();
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < kFrames; ++i) {
    auto guard = pool.FetchPage(static_cast<PageId>(kFrames + i));
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    guards.push_back(std::move(guard).value());
  }
  // And the (capacity+1)-th concurrent pin fails for the *right* reason.
  auto extra = pool.FetchPage(0);
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kResourceExhausted);
}

// Retryable eviction: when the LRU victim's dirty write-back fails, the
// pool must skip that frame (leaving it resident and dirty for a later
// retry) and evict the next LRU candidate instead — a fetch succeeds while
// one poisoned page sits in the pool.
TEST(FaultInjectionTest, EvictionSkipsPoisonedVictim) {
  constexpr size_t kFrames = 3;
  IoStats stats;
  MemoryBackend real(&stats);
  // Backing pages: kFrames resident + 2 replacement targets.
  for (size_t i = 0; i < kFrames + 2; ++i) {
    ASSERT_TRUE(real.AllocatePage().ok());
  }

  FaultInjectionBackend flaky(&real, ~0ull);
  BufferPool pool(&flaky, kFrames);
  // Make page 0 the LRU victim, dirty, with a poisoned write path; the
  // other residents are dirty too but writable.
  for (size_t i = 0; i < kFrames; ++i) {
    auto guard = pool.FetchPage(static_cast<PageId>(i));
    ASSERT_TRUE(guard.ok());
    guard.value().MarkDirty();
  }
  flaky.PoisonWrites(0);

  // The fetch needs an eviction; the LRU victim (page 0) cannot be written
  // back, so the pool must route around it and still succeed.
  auto fetch = pool.FetchPage(static_cast<PageId>(kFrames));
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  fetch.value().Release();

  // The poisoned page stayed resident (a re-fetch is a cache hit: no read
  // budget is consumed because no ReadPage reaches the backend).
  const uint64_t ops_before = flaky.ops();
  auto poisoned = pool.FetchPage(0);
  ASSERT_TRUE(poisoned.ok());
  EXPECT_EQ(flaky.ops(), ops_before);
  poisoned.value().Release();

  // Once the page heals, its write-back succeeds and it becomes evictable
  // again (fetching two fresh pages forces it out eventually).
  flaky.PoisonWrites(kInvalidPageId);
  auto fetch2 = pool.FetchPage(static_cast<PageId>(kFrames + 1));
  ASSERT_TRUE(fetch2.ok()) << fetch2.status().ToString();
}

// Regression: a failed backend read in FetchPage used to drop the victim
// frame after it had already been detached from the LRU and page table;
// the frame has to return to the free list on that path.
TEST(FaultInjectionTest, ReadFailureReturnsFrameToFreeList) {
  constexpr size_t kFrames = 4;
  IoStats stats;
  MemoryBackend real(&stats);
  for (size_t i = 0; i < kFrames; ++i) ASSERT_TRUE(real.AllocatePage().ok());

  FaultInjectionBackend flaky(&real, 0);  // every read fails
  BufferPool pool(&flaky, kFrames);
  // More failed fetches than frames: if any attempt leaked its frame, the
  // pool would run out and report ResourceExhausted instead of IOError.
  for (size_t attempt = 0; attempt < 2 * kFrames; ++attempt) {
    auto fetch = pool.FetchPage(0);
    ASSERT_FALSE(fetch.ok());
    EXPECT_TRUE(fetch.status().IsIOError()) << fetch.status().ToString();
  }

  flaky.Heal();
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < kFrames; ++i) {
    auto guard = pool.FetchPage(static_cast<PageId>(i));
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    guards.push_back(std::move(guard).value());
  }
}

TEST(FaultInjectionTest, TableHeapInsertSurfacesAllocationFailure) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 4);  // enough for creation only
  BufferPool pool(&flaky, 4);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  // Fill the first page; the chain extension must eventually fail cleanly.
  const std::string record(1000, 'x');
  Status last = Status::OK();
  for (int i = 0; i < 100 && last.ok(); ++i) {
    last = heap->Insert(record);
  }
  EXPECT_TRUE(last.IsIOError());
}

TEST(FaultInjectionTest, ExternalSortSpillFailureIsReported) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 8);
  BufferPool pool(&flaky, 8);
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.sort_memory_bytes = 128;  // spill almost immediately

  Schema schema({Column{"a", ValueType::kInt32}});
  ExternalSort sort(ctx, schema, TupleComparator({0}));
  Status last = Status::OK();
  for (int i = 0; i < 10000 && last.ok(); ++i) {
    last = sort.Add(Tuple({Value::Int32(i)}));
  }
  if (last.ok()) {
    auto finish = sort.Finish();
    last = finish.ok() ? Status::OK() : finish.status();
  }
  EXPECT_TRUE(last.IsIOError()) << last.ToString();
}

TEST(FaultInjectionTest, BPlusTreeBulkLoadFailureIsReported) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 64);
  BufferPool pool(&flaky, 8);
  std::vector<BPlusTree::Entry> entries;
  for (uint64_t k = 0; k < 100000; ++k) entries.push_back({k, 0});
  auto tree = BPlusTree::BulkLoad(&pool, entries);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsIOError()) << tree.status().ToString();
}

TEST(FaultInjectionTest, HealedBackendResumesCleanly) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 10);
  BufferPool pool(&flaky, 4);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  const std::string record(1500, 'y');
  Status last = Status::OK();
  int inserted = 0;
  for (int i = 0; i < 50 && last.ok(); ++i) {
    last = heap->Insert(record);
    if (last.ok()) ++inserted;
  }
  ASSERT_TRUE(last.IsIOError());
  flaky.Heal();
  // After healing, the heap accepts inserts again and earlier records are
  // still readable through iteration.
  ASSERT_TRUE(heap->Insert(record).ok());
  int count = 0;
  auto it = heap->Begin();
  while (true) {
    auto more = it.Next();
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    ++count;
  }
  EXPECT_EQ(count, inserted + 1);
}

// Inserts before a failing one stay live: an insert that fails while
// chaining a page leaves the records already on the tail counted, and they
// reach the backend on the next flush and reopen.
TEST(FaultInjectionTest, FailedAppendKeepsPlacedRecords) {
  IoStats stats;
  MemoryBackend real(&stats);
  // Op 1 allocates the heap's page, op 2 flushes it; op 3, the allocation
  // of the second page, fails.
  FaultInjectionBackend flaky(&real, 2);
  BufferPool pool(&flaky, 8);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  const std::string record(8, 'r');
  Status s = Status::OK();
  uint64_t inserted = 0;
  for (int i = 0; i < 1000 && s.ok(); ++i) {
    s = heap->Insert(record);
    if (s.ok()) ++inserted;
  }
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_GT(inserted, 0u);
  ASSERT_EQ(heap->live_records(), inserted);

  flaky.Heal();
  ASSERT_TRUE(pool.FlushAll().ok());
  BufferPool fresh(&real, 8);
  auto reopened = TableHeap::Open(&fresh, heap->first_page());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->live_records(), inserted);
}

// A scan whose first page cannot be read must report the error, not an
// empty table: a SALES scan that silently read nothing would mine zero
// itemsets "successfully".
TEST(FaultInjectionTest, HeapScanFirstPageFailureIsAnError) {
  IoStats stats;
  MemoryBackend real(&stats);
  const Schema schema({Column{"trans_id", ValueType::kInt32},
                       Column{"item", ValueType::kInt32}});
  PageId first = kInvalidPageId;
  PageId last = kInvalidPageId;
  uint64_t pages = 0;
  {
    BufferPool warm(&real, 4);
    auto table = HeapTable::Create("sales", schema, &warm);
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(table.value()
                      ->Insert(Tuple({Value::Int32(i / 10), Value::Int32(i)}))
                      .ok());
    }
    first = table.value()->first_page();
    last = table.value()->last_page();
    pages = table.value()->num_pages();
  }
  ASSERT_GE(pages, 3u);

  const auto expect_scan_fails = [](const Table& table, StatusCode code) {
    auto it = table.Scan();
    Tuple row;
    auto more = it->Next(&row);
    ASSERT_FALSE(more.ok());
    EXPECT_EQ(more.status().code(), code) << more.status().ToString();
  };
  {
    // Open walks the chain through a one-frame pool (one read per page);
    // the scan's first read is the next backend operation, and it fails.
    FaultInjectionBackend flaky(&real, pages);
    BufferPool pool(&flaky, 1);
    auto table = HeapTable::Open("sales", schema, &pool, first, 1000);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    expect_scan_fails(*table.value(), StatusCode::kIOError);
  }
  {
    // The pool's only frame is pinned: the first page cannot be fetched.
    BufferPool pool(&real, 1);
    auto table = HeapTable::Open("sales", schema, &pool, first, 1000);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    auto pin = pool.FetchPage(last);
    ASSERT_TRUE(pin.ok());
    expect_scan_fails(*table.value(), StatusCode::kResourceExhausted);
  }
}

// Appends `pages` full pages of width-2 rows to `relation`; returns the
// first failing Append.
Status AppendPages(IntRelation* relation, size_t pages) {
  const size_t rows = pages * IntRelation::RowsPerPage(2);
  for (size_t i = 0; i < rows; ++i) {
    const int32_t row[2] = {static_cast<int32_t>(i), 1};
    SETM_RETURN_IF_ERROR(relation->Append(row, 1));
  }
  return Status::OK();
}

// A scratch relation whose pages outgrow a pool of unread scratch writes
// the rest around the pool. When such a write fails, the append reports
// it, and the failed page's id and every written page go back: nothing
// stays allocated once the relation is gone.
TEST(FaultInjectionTest, FailedBypassWriteLeaksNoPage) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, ~0ull);
  BufferPool pool(&flaky, 2);
  {
    auto relation = IntRelation::CreateInPool(&pool, 2);
    ASSERT_TRUE(relation.ok());
    ASSERT_TRUE(AppendPages(relation.value().get(), 3).ok());  // one around
    EXPECT_EQ(pool.Stats().bypass_writes, 1u);
    flaky.PoisonWrites(static_cast<PageId>(real.NumPages()));
    Status failed = AppendPages(relation.value().get(), 1);
    EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
    EXPECT_EQ(real.LivePages(), 3u);
  }
  EXPECT_EQ(real.LivePages(), 0u);
  EXPECT_EQ(pool.DirtyPageCount(), 0u);
}

// A last scan that cannot read a page from around the pool fails instead
// of ending early; the page it could not read, and the ones after it, are
// released with the relation when the cursor goes.
TEST(FaultInjectionTest, FailedLastScanReadLeavesThePageToTheRelation) {
  constexpr size_t kPages = 4;
  IoStats stats;
  MemoryBackend real(&stats);
  // Four allocations and the two writes around the pool succeed; the first
  // read fails.
  FaultInjectionBackend flaky(&real, kPages + 2);
  BufferPool pool(&flaky, 2);
  auto relation = IntRelation::CreateInPool(&pool, 2);
  ASSERT_TRUE(relation.ok());
  ASSERT_TRUE(AppendPages(relation.value().get(), kPages).ok());
  ASSERT_TRUE(relation.value()->Finish().ok());
  ASSERT_EQ(pool.Stats().bypass_writes, 2u);
  auto cursor = IntRelation::LastScan(std::move(relation).value());
  uint64_t rows = 0;
  const int32_t* row = nullptr;
  Result<bool> more = cursor->Next(&row);
  for (; more.ok() && more.value(); more = cursor->Next(&row)) ++rows;
  EXPECT_TRUE(more.status().IsIOError()) << more.status().ToString();
  // The two pages the pool held were read; the third was not.
  EXPECT_EQ(rows, 2 * IntRelation::RowsPerPage(2));
  EXPECT_EQ(real.LivePages(), 2u);
  cursor.reset();
  EXPECT_EQ(real.LivePages(), 0u);
}

// Spilled runs are read back during the cascade and the final merge. A
// failure at any backend operation must surface from Finish() or from the
// sorted stream — never as a stream that ends early. The Tuple sort and
// the C_k count's merge each run every failure point from the first run
// read to a clean finish.
constexpr int kSpillRows = 65 * 64;

using Rows = std::vector<std::pair<int, int>>;

/// Feeds kSpillRows rows to a sort or count through an 8-frame pool over
/// `backend`, with enough runs to exceed the merge fan-in of 64 and
/// cascade. Returns the drained (key, value) rows or the first error;
/// `*ops_after_adds` receives the backend op count once intake is done.
template <typename AddFn, typename DrainFn>
Result<Rows> SpillSort(FaultInjectionBackend* backend,
                       uint64_t* ops_after_adds, AddFn add, DrainFn drain) {
  BufferPool pool(backend, 8);
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.sort_memory_bytes = 64 * 8;
  auto sort = add(ctx);
  *ops_after_adds = backend->ops();
  Result<Rows> rows = drain(&sort);
  backend->Heal();  // let the pool's final flush succeed quietly
  return rows;
}

int SpillKey(int i) { return (i * 7919) % 97; }

/// Checks that `drain` returns `expected` on a clean backend and an
/// IOError for every fault budget past intake.
template <typename AddFn, typename DrainFn>
void ExpectNoShortStream(const Rows& expected, AddFn add, DrainFn drain) {
  IoStats clean_stats;
  MemoryBackend clean_real(&clean_stats);
  FaultInjectionBackend clean(&clean_real, ~0ull);
  uint64_t intake_ops = 0;
  auto clean_rows = SpillSort(&clean, &intake_ops, add, drain);
  ASSERT_TRUE(clean_rows.ok()) << clean_rows.status().ToString();
  ASSERT_EQ(clean_rows.value(), expected);
  const uint64_t total_ops = clean.ops();
  ASSERT_GT(total_ops, intake_ops);

  for (uint64_t budget = intake_ops; budget < total_ops; ++budget) {
    IoStats stats;
    MemoryBackend real(&stats);
    FaultInjectionBackend flaky(&real, budget);
    uint64_t ops = 0;
    auto rows = SpillSort(&flaky, &ops, add, drain);
    ASSERT_FALSE(rows.ok()) << "budget " << budget << " of " << total_ops
                            << " read " << rows.value().size() << " rows";
    EXPECT_TRUE(rows.status().IsIOError()) << rows.status().ToString();
  }
}

TEST(FaultInjectionTest, SpilledSortRunReadFailureIsAnError) {
  Rows sorted;
  for (int i = 0; i < kSpillRows; ++i) sorted.emplace_back(SpillKey(i), i);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const Schema schema({Column{"key", ValueType::kInt32},
                       Column{"payload", ValueType::kInt32}});
  ExpectNoShortStream(
      sorted,
      [&schema](ExecContext ctx) {
        auto sort = std::make_shared<ExternalSort>(ctx, schema,
                                                   TupleComparator({0}));
        for (int i = 0; i < kSpillRows; ++i) {
          EXPECT_TRUE(
              sort->Add(Tuple({Value::Int32(SpillKey(i)), Value::Int32(i)}))
                  .ok());
        }
        return sort;
      },
      [](std::shared_ptr<ExternalSort>* sort) -> Result<Rows> {
        auto it = (*sort)->Finish();
        if (!it.ok()) return it.status();
        Rows rows;
        Tuple row;
        while (true) {
          auto more = it.value()->Next(&row);
          if (!more.ok()) return more.status();
          if (!more.value()) return rows;
          rows.emplace_back(row.value(0).AsInt32(), row.value(1).AsInt32());
        }
      });

  // The budgeted C_k count: a read failure in its cascade or final merge is
  // an IOError from Finish(), never a short or partial count. Its table
  // spills every 32 new keys (a zero budget), and the keys cycle through
  // 1,031, so each run holds 32 keys with a count of one and the runs far
  // exceed the fan-in.
  constexpr int kKeys = 1031;
  const auto key_of = [](int i) { return (i * 7919) % kKeys; };
  std::vector<int> totals(kKeys, 0);
  for (int i = 0; i < kSpillRows; ++i) ++totals[key_of(i)];
  Rows counted;
  for (int key = 0; key < kKeys; ++key) {
    if (totals[key] > 0) counted.emplace_back(key, totals[key]);
  }
  ExpectNoShortStream(
      counted,
      [&key_of](ExecContext ctx) {
        auto count = std::make_shared<BudgetedCount>(ctx, 1, /*budget=*/0);
        for (int i = 0; i < kSpillRows; ++i) {
          const ItemId key = key_of(i);
          EXPECT_TRUE(count->Add(&key).ok());
        }
        EXPECT_GT(count->stats().spilled_runs, 64u);
        return count;
      },
      [](std::shared_ptr<BudgetedCount>* count) -> Result<Rows> {
        Rows rows;
        Status s = (*count)->Finish(
            /*min_count=*/1, [&rows](const ItemId* key, int64_t total) {
              rows.emplace_back(key[0], static_cast<int>(total));
            });
        if (!s.ok()) return s;
        return rows;
      });
}

}  // namespace
}  // namespace setm
