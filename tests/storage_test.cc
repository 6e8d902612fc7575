// Unit tests for src/storage: backends, IoStats classification, buffer pool
// and the slotted-page table heap.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/storage_backend.h"
#include "storage/table_heap.h"

namespace setm {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --------------------------------------------------------------------------
// MemoryBackend
// --------------------------------------------------------------------------

TEST(MemoryBackendTest, AllocateReadWriteRoundTrip) {
  IoStats stats;
  MemoryBackend backend(&stats);
  auto id = backend.AllocatePage();
  ASSERT_TRUE(id.ok());
  Page page;
  page.Clear();
  page.data[0] = 'x';
  page.data[kPageSize - 1] = 'y';
  ASSERT_TRUE(backend.WritePage(id.value(), page).ok());
  Page out;
  ASSERT_TRUE(backend.ReadPage(id.value(), &out).ok());
  EXPECT_EQ(out.data[0], 'x');
  EXPECT_EQ(out.data[kPageSize - 1], 'y');
}

TEST(MemoryBackendTest, FreshPageIsZeroed) {
  MemoryBackend backend(nullptr);
  auto id = backend.AllocatePage();
  ASSERT_TRUE(id.ok());
  Page out;
  ASSERT_TRUE(backend.ReadPage(id.value(), &out).ok());
  for (size_t i = 0; i < kPageSize; i += 512) EXPECT_EQ(out.data[i], 0);
}

TEST(MemoryBackendTest, UnallocatedAccessFails) {
  MemoryBackend backend(nullptr);
  Page page;
  EXPECT_TRUE(backend.ReadPage(3, &page).IsInvalidArgument());
  EXPECT_TRUE(backend.WritePage(3, page).IsInvalidArgument());
}

// A freed id is neither readable nor writable until it is allocated again;
// reads and writes fail with a Status instead of touching the freed page
// (ASan checks the "instead"). The next allocation reuses the id, zeroed,
// counts it in pages_reused and does not grow the backend.
TEST(MemoryBackendTest, FreedPageIsUnreachableUntilReused) {
  IoStats stats;
  MemoryBackend backend(&stats);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(backend.AllocatePage().ok());
  Page page;
  page.Clear();
  page.data[9] = 'z';
  ASSERT_TRUE(backend.WritePage(1, page).ok());
  ASSERT_TRUE(backend.FreePage(1).ok());
  EXPECT_EQ(backend.NumPages(), 3u);
  EXPECT_EQ(backend.LivePages(), 2u);
  Page out;
  EXPECT_TRUE(backend.ReadPage(1, &out).IsInvalidArgument());
  EXPECT_TRUE(backend.WritePage(1, page).IsInvalidArgument());
  EXPECT_TRUE(backend.FreePage(1).IsInvalidArgument());
  EXPECT_TRUE(backend.FreePage(7).IsInvalidArgument());
  EXPECT_EQ(stats.page_reads, 0u);
  EXPECT_EQ(stats.page_writes, 1u);

  auto id = backend.AllocatePage();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 1u);
  EXPECT_EQ(backend.NumPages(), 3u);
  EXPECT_EQ(backend.LivePages(), 3u);
  EXPECT_EQ(stats.pages_allocated, 3u);
  EXPECT_EQ(stats.pages_reused, 1u);
  ASSERT_TRUE(backend.ReadPage(1, &out).ok());
  EXPECT_EQ(out.data[9], 0);
}

TEST(MemoryBackendTest, SequentialVsRandomClassification) {
  IoStats stats;
  MemoryBackend backend(&stats);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(backend.AllocatePage().ok());
  Page page;
  // Sequential walk 0..9: first read has no predecessor -> random.
  for (PageId i = 0; i < 10; ++i) ASSERT_TRUE(backend.ReadPage(i, &page).ok());
  EXPECT_EQ(stats.page_reads, 10u);
  EXPECT_EQ(stats.sequential_reads, 9u);
  EXPECT_EQ(stats.random_reads, 1u);
  // Jump back to page 0: random. Re-read same page: sequential (cached arm).
  ASSERT_TRUE(backend.ReadPage(0, &page).ok());
  ASSERT_TRUE(backend.ReadPage(0, &page).ok());
  EXPECT_EQ(stats.random_reads, 2u);
  EXPECT_EQ(stats.sequential_reads, 10u);
}

TEST(IoStatsTest, ModelSecondsUsesPaperCosts) {
  IoStats stats;
  stats.random_reads = 100;   // 100 x 20ms = 2s
  stats.sequential_writes = 300;  // 300 x 10ms = 3s
  stats.page_reads = 100;
  stats.page_writes = 300;
  EXPECT_DOUBLE_EQ(stats.ModelSeconds(), 5.0);
  EXPECT_EQ(stats.TotalAccesses(), 400u);
}

TEST(IoStatsTest, AccumulateAndReset) {
  IoStats a, b;
  a.page_reads = 5;
  b.page_reads = 7;
  b.random_writes = 2;
  a += b;
  EXPECT_EQ(a.page_reads, 12u);
  EXPECT_EQ(a.random_writes, 2u);
  a.Reset();
  EXPECT_EQ(a.page_reads, 0u);
  EXPECT_FALSE(a.ToString().empty());
}

// --------------------------------------------------------------------------
// FileBackend
// --------------------------------------------------------------------------

TEST(FileBackendTest, RoundTripAndPersistence) {
  const std::string path = TempPath("file_backend_test.db");
  IoStats stats;
  {
    auto backend = FileBackend::Open(path, &stats);
    ASSERT_TRUE(backend.ok());
    auto id = (*backend)->AllocatePage();
    ASSERT_TRUE(id.ok());
    Page page;
    page.Clear();
    std::snprintf(page.data, kPageSize, "persisted");
    ASSERT_TRUE((*backend)->WritePage(id.value(), page).ok());
  }
  {
    // Re-open without truncation: the page must still be there.
    auto backend = FileBackend::Open(path, &stats, /*truncate=*/false);
    ASSERT_TRUE(backend.ok());
    EXPECT_EQ((*backend)->NumPages(), 1u);
    Page out;
    ASSERT_TRUE((*backend)->ReadPage(0, &out).ok());
    EXPECT_STREQ(out.data, "persisted");
  }
  std::remove(path.c_str());
}

TEST(FileBackendTest, TruncateDiscardsContent) {
  const std::string path = TempPath("file_backend_trunc.db");
  {
    auto backend = FileBackend::Open(path, nullptr);
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE((*backend)->AllocatePage().ok());
  }
  auto backend = FileBackend::Open(path, nullptr, /*truncate=*/true);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ((*backend)->NumPages(), 0u);
  std::remove(path.c_str());
}

TEST(FileBackendTest, OpenInvalidPathFails) {
  auto backend = FileBackend::Open("/nonexistent-dir-xyz/f.db", nullptr);
  EXPECT_FALSE(backend.ok());
  EXPECT_TRUE(backend.status().IsIOError());
}

// --------------------------------------------------------------------------
// BufferPool
// --------------------------------------------------------------------------

TEST(BufferPoolTest, NewPageIsPinnedAndWritable) {
  MemoryBackend backend(nullptr);
  BufferPool pool(&backend, 4);
  auto guard = pool.NewPage();
  ASSERT_TRUE(guard.ok());
  guard.value().page()->data[0] = 'a';
  guard.value().MarkDirty();
  EXPECT_TRUE(guard.value().valid());
}

TEST(BufferPoolTest, FetchHitsCache) {
  MemoryBackend backend(nullptr);
  BufferPool pool(&backend, 4);
  PageId id;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard.value().id();
  }
  ASSERT_TRUE(pool.FetchPage(id).ok());
  ASSERT_TRUE(pool.FetchPage(id).ok());
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 2);
  PageId first;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    first = guard.value().id();
    guard.value().page()->data[0] = 'Z';
    guard.value().MarkDirty();
  }
  // Fill the pool with two more pages, evicting the first.
  for (int i = 0; i < 2; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
  }
  // Re-fetch: content must have survived the eviction round trip.
  auto again = pool.FetchPage(first);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().page()->data[0], 'Z');
}

TEST(BufferPoolTest, AllPinnedExhaustsPool) {
  MemoryBackend backend(nullptr);
  BufferPool pool(&backend, 2);
  auto g1 = pool.NewPage();
  auto g2 = pool.NewPage();
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto g3 = pool.NewPage();
  EXPECT_FALSE(g3.ok());
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
  // Releasing a pin frees a frame.
  g1.value().Release();
  EXPECT_TRUE(pool.NewPage().ok());
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUnpinned) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 2);
  PageId a, b;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    a = g.value().id();
  }
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    b = g.value().id();
  }
  // Touch a so b becomes LRU.
  ASSERT_TRUE(pool.FetchPage(a).ok());
  const uint64_t misses_before = pool.misses();
  // New page evicts b (LRU), so fetching b misses but a still hits.
  ASSERT_TRUE(pool.NewPage().ok());
  ASSERT_TRUE(pool.FetchPage(a).ok());
  EXPECT_EQ(pool.misses(), misses_before);
  ASSERT_TRUE(pool.FetchPage(b).ok());
  EXPECT_EQ(pool.misses(), misses_before + 1);
}

// A released page's frame is dropped without a write-back and its id goes
// back to the backend, which hands it out again before growing. A pinned
// page cannot be released.
TEST(BufferPoolTest, ReleaseDropsTheFrameUnwrittenAndReusesTheId) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 4);
  PageId id;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard.value().id();
    guard.value().page()->data[3] = 7;
    guard.value().MarkDirty();
    EXPECT_TRUE(pool.ReleasePage(id).IsInvalidArgument());
  }
  EXPECT_EQ(pool.DirtyPageCount(), 1u);
  ASSERT_TRUE(pool.ReleasePage(id).ok());
  EXPECT_EQ(pool.DirtyPageCount(), 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(stats.page_writes, 0u);
  EXPECT_EQ(backend.LivePages(), 0u);
  EXPECT_FALSE(pool.FetchPage(id).ok());  // freed: nothing to read

  auto again = pool.NewPage();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().id(), id);
  EXPECT_EQ(again.value().page()->data[3], 0);
  EXPECT_EQ(stats.pages_allocated, 1u);
  EXPECT_EQ(stats.pages_reused, 1u);
}

// With an allocation and a release hook installed, released ids go to the
// release hook and come back through the allocation hook, counted as
// reused; the backend is never asked to free or grow.
TEST(BufferPoolTest, ReleaseHookFeedsTheAllocationHook) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 4);
  std::vector<PageId> free_ids;
  pool.SetAllocationHook([&free_ids]() {
    if (free_ids.empty()) return kInvalidPageId;
    const PageId id = free_ids.back();
    free_ids.pop_back();
    return id;
  });
  pool.SetReleaseHook([&free_ids](PageId id) { free_ids.push_back(id); });
  PageId id;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard.value().id();
  }
  ASSERT_TRUE(pool.ReleasePage(id).ok());
  EXPECT_EQ(free_ids, std::vector<PageId>{id});
  EXPECT_EQ(backend.LivePages(), 1u);
  auto again = pool.NewPage();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().id(), id);
  EXPECT_EQ(backend.NumPages(), 1u);
  EXPECT_EQ(stats.pages_allocated, 1u);
  EXPECT_EQ(stats.pages_reused, 1u);
}

// kRetain pages keep their frames through scans that evict everything
// else, up to half the pool; past that share they are plain LRU frames.
TEST(BufferPoolTest, RetainedShareSurvivesScansUpToHalfThePool) {
  IoStats stats;
  MemoryBackend backend(&stats);
  constexpr size_t kFrames = 8;
  constexpr size_t kShare = kFrames / BufferPool::kRetainedShareDivisor;
  BufferPool pool(&backend, kFrames);
  std::vector<PageId> looped;  // one page more than the share
  for (size_t i = 0; i <= kShare; ++i) {
    auto id = pool.AddPage(Page{}, PageHint::kRetain);
    ASSERT_TRUE(id.ok());
    looped.push_back(id.value());
  }
  for (int scan = 0; scan < 3; ++scan) {
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(pool.NewPage().ok());
  }
  const uint64_t misses = pool.misses();
  for (size_t i = 0; i < kShare; ++i) {
    ASSERT_TRUE(pool.FetchPage(looped[i], PageHint::kRetain).ok());
  }
  EXPECT_EQ(pool.misses(), misses);  // the share stayed resident
  ASSERT_TRUE(pool.FetchPage(looped[kShare], PageHint::kRetain).ok());
  EXPECT_EQ(pool.misses(), misses + 1);  // the page past it was evicted

  // Releasing a retained page frees its place in the share.
  ASSERT_TRUE(pool.ReleasePage(looped[0]).ok());
  ASSERT_TRUE(pool.ReleasePage(looped[kShare]).ok());
  {
    auto id = pool.AddPage(Page{}, PageHint::kRetain);
    ASSERT_TRUE(id.ok());
    looped[0] = id.value();
  }
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(pool.NewPage().ok());
  const uint64_t misses_after = pool.misses();
  for (size_t i = 0; i < kShare; ++i) {
    ASSERT_TRUE(pool.FetchPage(looped[i]).ok());
  }
  EXPECT_EQ(pool.misses(), misses_after);
}

// A page image whose first byte is `tag`.
Page TaggedPage(char tag) {
  Page page{};
  page.data[0] = tag;
  return page;
}

// A scratch page's last read of a resident page copies it out of its
// frame: a hit that reads nothing, and the page is released unwritten.
TEST(BufferPoolTest, TakeOfAResidentPageIsAHit) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 4);
  auto id = pool.AddPage(TaggedPage('r'));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(pool.DirtyPageCount(), 1u);
  Page out{};
  ASSERT_TRUE(pool.TakePage(id.value(), &out).ok());
  EXPECT_EQ(out.data[0], 'r');
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(stats.page_reads, 0u);
  EXPECT_EQ(stats.page_writes, 0u);
  EXPECT_EQ(pool.DirtyPageCount(), 0u);
  EXPECT_EQ(backend.LivePages(), 0u);  // released
  EXPECT_EQ(pool.Stats().bypass_reads, 0u);
}

// The last read of an evicted page reads it from the backend into the
// caller's buffer: one read, a miss, and no frame taken, so the pages the
// pool holds stay there.
TEST(BufferPoolTest, TakeOfAnEvictedPageReadsAroundThePool) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 2);
  auto scratch = pool.AddPage(TaggedPage('s'));
  ASSERT_TRUE(scratch.ok());
  std::vector<PageId> resident;
  for (int i = 0; i < 2; ++i) {  // the second evicts the scratch page
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    resident.push_back(guard.value().id());
  }
  ASSERT_EQ(stats.page_writes, 1u);
  const BufferPool::PoolStats before = pool.Stats();
  Page out{};
  ASSERT_TRUE(pool.TakePage(scratch.value(), &out).ok());
  EXPECT_EQ(out.data[0], 's');
  const BufferPool::PoolStats after = pool.Stats();
  EXPECT_EQ(stats.page_reads, 1u);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.bypass_reads, 1u);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(backend.LivePages(), 2u);  // the taken page is released
  for (PageId id : resident) ASSERT_TRUE(pool.FetchPage(id).ok());
  EXPECT_EQ(pool.misses(), after.misses);  // both still resident
}

// A scratch page's write takes the LRU victim's frame when the victim is
// clean or a dirty page of a base table, which is written back first.
TEST(BufferPoolTest, AddEvictsACleanOrBaseTableVictim) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 1);
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_EQ(stats.page_writes, 1u);
  auto first = pool.AddPage(TaggedPage('1'));  // the victim is clean
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(pool.Stats().evictions, 1u);
  EXPECT_EQ(stats.page_writes, 1u);

  PageId table_page;
  {
    // NewPage never goes around: it evicts the scratch page.
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    table_page = guard.value().id();
    guard.value().page()->data[0] = 't';
    guard.value().MarkDirty();
  }
  EXPECT_EQ(stats.page_writes, 2u);
  auto second = pool.AddPage(TaggedPage('2'));  // the victim is dirty
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(stats.page_writes, 3u);  // the table page's write-back
  EXPECT_EQ(pool.Stats().bypass_writes, 0u);
  Page raw;
  ASSERT_TRUE(backend.ReadPage(table_page, &raw).ok());
  EXPECT_EQ(raw.data[0], 't');
  const uint64_t hits = pool.hits();
  Page out{};
  ASSERT_TRUE(pool.TakePage(second.value(), &out).ok());
  EXPECT_EQ(out.data[0], '2');
  EXPECT_EQ(pool.hits(), hits + 1);  // cached
}

// When the LRU victim is a scratch page an earlier AddPage cached and no
// one has read, the new page goes straight to the backend and the victim
// stays: the pages a scan reads first are never displaced by later ones.
TEST(BufferPoolTest, AddWritesAroundAnUnreadScratchVictim) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 2);
  std::vector<PageId> ids;
  for (char tag : {'a', 'b', 'c', 'd'}) {
    auto id = pool.AddPage(TaggedPage(tag));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  EXPECT_EQ(stats.page_writes, 2u);  // 'c' and 'd', each written once
  const BufferPool::PoolStats added = pool.Stats();
  EXPECT_EQ(added.bypass_writes, 2u);
  EXPECT_EQ(added.evictions, 0u);
  EXPECT_EQ(added.dirty_writebacks, 0u);
  for (size_t i = 0; i < ids.size(); ++i) {
    Page out{};
    ASSERT_TRUE(pool.TakePage(ids[i], &out).ok());
    EXPECT_EQ(out.data[0], "abcd"[i]);
  }
  const BufferPool::PoolStats taken = pool.Stats();
  EXPECT_EQ(taken.hits, 2u);  // 'a' and 'b' were still resident
  EXPECT_EQ(taken.misses, 2u);
  EXPECT_EQ(taken.bypass_reads, 2u);
  EXPECT_EQ(stats.page_reads, 2u);
  EXPECT_EQ(stats.page_writes, 2u);
  EXPECT_EQ(backend.LivePages(), 0u);
}

// A recycled id may still be cached from its former life (a retired
// manifest page, a dropped table's page). AddPage, like NewPage, reuses
// that frame for the id's new page, even when every other frame holds
// unread scratch, and nothing is written.
TEST(BufferPoolTest, AddReusesTheStaleFrameOfARecycledId) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 2);
  std::vector<PageId> free_ids;
  pool.SetAllocationHook([&free_ids]() {
    if (free_ids.empty()) return kInvalidPageId;
    const PageId id = free_ids.back();
    free_ids.pop_back();
    return id;
  });
  PageId stale;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    stale = guard.value().id();
    guard.value().page()->data[0] = 'o';
    guard.value().MarkDirty();
  }
  auto unread = pool.AddPage(TaggedPage('u'));
  ASSERT_TRUE(unread.ok());
  // The page is freed, but its frame is still cached, and dirty.
  free_ids.push_back(stale);
  auto recycled = pool.AddPage(TaggedPage('n'));
  ASSERT_TRUE(recycled.ok());
  EXPECT_EQ(recycled.value(), stale);
  EXPECT_EQ(stats.pages_reused, 1u);
  EXPECT_EQ(stats.page_writes, 0u);
  EXPECT_EQ(pool.Stats().evictions, 0u);
  EXPECT_EQ(pool.Stats().bypass_writes, 0u);
  Page out{};
  ASSERT_TRUE(pool.TakePage(stale, &out).ok());
  EXPECT_EQ(out.data[0], 'n');
  ASSERT_TRUE(pool.TakePage(unread.value(), &out).ok());
  EXPECT_EQ(out.data[0], 'u');
  EXPECT_EQ(pool.misses(), 0u);
}

// A bypass write that fails gives its id back (here to the backend, which
// reuses it) and takes no frame: the pool still holds `capacity` pages.
TEST(BufferPoolTest, FailedBypassWriteGivesItsIdBack) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, ~0ull);
  BufferPool pool(&flaky, 2);
  std::vector<PageId> cached;
  for (char tag : {'a', 'b'}) {
    auto id = pool.AddPage(TaggedPage(tag));
    ASSERT_TRUE(id.ok());
    cached.push_back(id.value());
  }
  const PageId next = static_cast<PageId>(real.NumPages());
  flaky.PoisonWrites(next);
  auto failed = pool.AddPage(TaggedPage('c'));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_EQ(real.LivePages(), 2u);
  EXPECT_EQ(pool.Stats().bypass_writes, 0u);

  flaky.PoisonWrites(kInvalidPageId);
  auto again = pool.AddPage(TaggedPage('c'));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), next);  // the id came back
  for (PageId id : cached) {
    Page out{};
    ASSERT_TRUE(pool.TakePage(id, &out).ok());
  }
  EXPECT_EQ(pool.misses(), 0u);
  std::vector<PageGuard> guards;
  for (int i = 0; i < 2; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    guards.push_back(std::move(guard).value());
  }
}

// A take whose backend read fails releases nothing: the page still
// belongs to its owner, and a later take of it succeeds.
TEST(BufferPoolTest, FailedTakeReadKeepsThePage) {
  IoStats stats;
  MemoryBackend real(&stats);
  // Two allocations and the bypass write succeed; the read fails.
  FaultInjectionBackend flaky(&real, 3);
  BufferPool pool(&flaky, 1);
  auto cached = pool.AddPage(TaggedPage('a'));
  auto around = pool.AddPage(TaggedPage('b'));
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(around.ok());
  Page out{};
  Status failed = pool.TakePage(around.value(), &out);
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  EXPECT_EQ(real.LivePages(), 2u);
  EXPECT_EQ(pool.Stats().bypass_reads, 0u);
  EXPECT_EQ(pool.DirtyPageCount(), 1u);  // 'a' is still cached

  flaky.Heal();
  ASSERT_TRUE(pool.TakePage(around.value(), &out).ok());
  EXPECT_EQ(out.data[0], 'b');
  ASSERT_TRUE(pool.TakePage(cached.value(), &out).ok());
  EXPECT_EQ(out.data[0], 'a');
  EXPECT_EQ(real.LivePages(), 0u);
}

// A pinned page cannot be taken.
TEST(BufferPoolTest, TakeOfAPinnedPageFails) {
  MemoryBackend backend(nullptr);
  BufferPool pool(&backend, 2);
  auto id = pool.AddPage(TaggedPage('p'));
  ASSERT_TRUE(id.ok());
  auto guard = pool.FetchPage(id.value());
  ASSERT_TRUE(guard.ok());
  Page out{};
  EXPECT_TRUE(pool.TakePage(id.value(), &out).IsInvalidArgument());
  guard.value().Release();
  EXPECT_TRUE(pool.TakePage(id.value(), &out).ok());
}

TEST(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 4);
  PageId id;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard.value().id();
    guard.value().page()->data[7] = 42;
    guard.value().MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  Page raw;
  ASSERT_TRUE(backend.ReadPage(id, &raw).ok());
  EXPECT_EQ(raw.data[7], 42);
}

TEST(BufferPoolTest, MoveGuardTransfersPin) {
  MemoryBackend backend(nullptr);
  BufferPool pool(&backend, 1);
  auto g1 = pool.NewPage();
  ASSERT_TRUE(g1.ok());
  PageGuard moved = std::move(g1).value();
  EXPECT_TRUE(moved.valid());
  moved.Release();
  // Frame is free again.
  EXPECT_TRUE(pool.NewPage().ok());
}

// Concurrent pin/dirty/unpin traffic from several threads, with eviction
// pressure (pages outnumber frames). Each thread owns a disjoint page set;
// the pool's bookkeeping and the shared IoStats ledger must stay exact.
TEST(BufferPoolTest, ConcurrentFetchAndEvictIsSafe) {
  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 8;
  constexpr int kRounds = 200;
  IoStats stats;
  MemoryBackend backend(&stats);
  std::vector<PageId> ids;
  for (int i = 0; i < kThreads * kPagesPerThread; ++i) {
    auto id = backend.AllocatePage();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }

  BufferPool pool(&backend, 8);  // far fewer frames than pages: evictions
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const PageId id = ids[t * kPagesPerThread + round % kPagesPerThread];
        auto guard = pool.FetchPage(id);
        if (!guard.ok()) {
          ++failures;
          return;
        }
        // First byte of each page carries its owner thread id.
        char* data = guard.value().page()->data;
        if (round >= kPagesPerThread && data[0] != static_cast<char>(t + 1)) {
          ++failures;
          return;
        }
        data[0] = static_cast<char>(t + 1);
        guard.value().MarkDirty();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Every page ends with its owner's mark, and the ledger balances: each
  // miss is one backend read.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPagesPerThread; ++i) {
      Page page;
      ASSERT_TRUE(backend.ReadPage(ids[t * kPagesPerThread + i], &page).ok());
      EXPECT_EQ(page.data[0], static_cast<char>(t + 1));
    }
  }
  EXPECT_EQ(stats.page_reads.load(),
            pool.misses() + kThreads * kPagesPerThread);
}

// --------------------------------------------------------------------------
// TableHeap
// --------------------------------------------------------------------------

class TableHeapTest : public testing::Test {
 protected:
  TableHeapTest() : backend_(&stats_), pool_(&backend_, 16) {}
  IoStats stats_;
  MemoryBackend backend_;
  BufferPool pool_;
};

/// Every record of `heap`, in storage order.
std::vector<std::string> ScanAll(const TableHeap& heap) {
  std::vector<std::string> records;
  auto it = heap.Begin();
  while (true) {
    auto more = it.Next();
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) return records;
    records.emplace_back(it.record());
  }
}

TEST_F(TableHeapTest, InsertScanRoundTrip) {
  auto heap = TableHeap::Create(&pool_);
  ASSERT_TRUE(heap.ok());
  ASSERT_TRUE(heap->Insert("hello world").ok());
  EXPECT_EQ(ScanAll(*heap), std::vector<std::string>{"hello world"});
  EXPECT_EQ(heap->live_records(), 1u);
  EXPECT_EQ(heap->live_bytes(), 11u);
}

TEST_F(TableHeapTest, EmptyRecordAllowed) {
  auto heap = TableHeap::Create(&pool_);
  ASSERT_TRUE(heap.ok());
  ASSERT_TRUE(heap->Insert("").ok());
  ASSERT_TRUE(heap->Insert("x").ok());
  EXPECT_EQ(ScanAll(*heap), (std::vector<std::string>{"", "x"}));
}

TEST_F(TableHeapTest, OversizedRecordRejected) {
  auto heap = TableHeap::Create(&pool_);
  ASSERT_TRUE(heap.ok());
  std::string big(kPageSize, 'x');
  EXPECT_TRUE(heap->Insert(big).IsInvalidArgument());
  EXPECT_EQ(heap->live_records(), 0u);
}

TEST_F(TableHeapTest, SpansMultiplePages) {
  auto heap = TableHeap::Create(&pool_);
  ASSERT_TRUE(heap.ok());
  const std::string record(100, 'r');
  const int n = 200;  // 200 x ~104 bytes > 4 KiB
  for (int i = 0; i < n; ++i) ASSERT_TRUE(heap->Insert(record).ok());
  EXPECT_GT(heap->num_pages(), 1u);
  EXPECT_EQ(heap->live_records(), static_cast<uint64_t>(n));
  // All records iterable, in order.
  EXPECT_EQ(ScanAll(*heap), std::vector<std::string>(n, record));
}

TEST_F(TableHeapTest, ReopenFindsRecordsAndTail) {
  PageId first;
  {
    auto heap = TableHeap::Create(&pool_);
    ASSERT_TRUE(heap.ok());
    first = heap->first_page();
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(heap->Insert(std::string(50, 'a' + (i % 26))).ok());
    }
  }
  auto reopened = TableHeap::Open(&pool_, first);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->live_records(), 300u);
  EXPECT_EQ(reopened->live_bytes(), 300u * 50);
  // Appends after reopen land on the tail page, not a fresh chain.
  ASSERT_TRUE(reopened->Insert("tail").ok());
  EXPECT_EQ(reopened->live_records(), 301u);
  const std::vector<std::string> records = ScanAll(*reopened);
  ASSERT_EQ(records.size(), 301u);
  EXPECT_EQ(records.back(), "tail");
}

// A hand-corrupted slot directory must read as Corruption through both
// entry points, Open and the record iterator, never as an out-of-bounds
// read (the ASan+UBSan job runs this).
class CorruptHeapPageTest : public testing::Test {
 protected:
  CorruptHeapPageTest() : backend_(&stats_), pool_(&backend_, 2) {}

  /// A one-page heap of 8-byte records whose page has been overwritten by
  /// `corrupt`.
  template <typename Fn>
  PageId CorruptedHeap(Fn corrupt) {
    auto heap = TableHeap::Create(&pool_);
    EXPECT_TRUE(heap.ok());
    for (int i = 0; i < 20; ++i) {
      const std::string record(8, static_cast<char>('a' + i));
      EXPECT_TRUE(heap->Insert(record).ok());
    }
    const PageId id = heap->first_page();
    auto guard = pool_.FetchPage(id);
    EXPECT_TRUE(guard.ok());
    corrupt(guard.value().page());
    guard.value().MarkDirty();
    return id;
  }

  /// Expects Open of the heap rooted at `first` to fail cleanly, and a scan
  /// that reaches the damaged page too: a live heap handle is rebuilt by
  /// re-pointing a fresh heap's chain at it.
  void ExpectCorruption(PageId first) {
    auto opened = TableHeap::Open(&pool_, first);
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();

    auto heap = TableHeap::Create(&pool_);
    ASSERT_TRUE(heap.ok());
    {
      auto guard = pool_.FetchPage(heap->first_page());
      ASSERT_TRUE(guard.ok());
      std::memcpy(guard.value().page()->data, &first, sizeof(first));
      guard.value().MarkDirty();
    }
    // The fresh page is empty; its next pointer leads to the damage.
    auto it = heap->Begin();
    Result<bool> more = true;
    while (more.ok() && more.value()) more = it.Next();
    ASSERT_FALSE(more.ok());
    EXPECT_TRUE(more.status().IsCorruption()) << more.status().ToString();
  }

  IoStats stats_;
  MemoryBackend backend_;
  BufferPool pool_;
};

// Page layout: next_page (u32) at 0, num_slots (u16) at 4, free_space_end
// (u16) at 6, then 4-byte slots {offset u16, length u16} from byte 8.
constexpr size_t kNumSlotsOffset = 4;
constexpr size_t kFirstSlotOffset = 8;

TEST_F(CorruptHeapPageTest, SlotCountPastThePage) {
  const PageId id = CorruptedHeap([](Page* p) {
    const uint16_t slots = 2000;
    std::memcpy(p->data + kNumSlotsOffset, &slots, sizeof(slots));
  });
  ExpectCorruption(id);
}

TEST_F(CorruptHeapPageTest, RecordPastThePage) {
  const PageId id = CorruptedHeap([](Page* p) {
    const uint16_t offset = kPageSize - 4;  // 8-byte record, 4 bytes outside
    std::memcpy(p->data + kFirstSlotOffset, &offset, sizeof(offset));
  });
  ExpectCorruption(id);
}

TEST_F(CorruptHeapPageTest, OverlappingRecords) {
  const PageId id = CorruptedHeap([](Page* p) {
    // Every slot claims the whole record area: copying them all would
    // overrun a page-sized buffer.
    uint16_t num_slots;
    std::memcpy(&num_slots, p->data + kNumSlotsOffset, sizeof(num_slots));
    const uint16_t offset = kFirstSlotOffset + 4 * num_slots;
    const uint16_t length = kPageSize - offset;
    for (uint16_t i = 0; i < num_slots; ++i) {
      std::memcpy(p->data + kFirstSlotOffset + 4 * i, &offset, 2);
      std::memcpy(p->data + kFirstSlotOffset + 4 * i + 2, &length, 2);
    }
  });
  ExpectCorruption(id);
}

// The heap once marked a deleted record with a length of 0xFFFF. Nothing
// deletes any more, so such a slot is damage like any other.
TEST_F(CorruptHeapPageTest, TombstoneLengthSlot) {
  const PageId id = CorruptedHeap([](Page* p) {
    const uint16_t length = 0xFFFF;
    std::memcpy(p->data + kFirstSlotOffset + 2, &length, sizeof(length));
  });
  ExpectCorruption(id);
}

}  // namespace
}  // namespace setm
