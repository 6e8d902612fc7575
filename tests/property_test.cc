// Randomized property tests: storage-layer fuzzing against reference
// models, and mining summaries (maximal/closed itemsets) checked against
// their definitions on random databases.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/brute_force.h"
#include "common/random.h"
#include "core/itemset_utils.h"
#include "datagen/quest_generator.h"
#include "storage/buffer_pool.h"
#include "storage/table_heap.h"

namespace setm {
namespace {

// --------------------------------------------------------------------------
// Buffer pool fuzz: random page workloads must preserve page contents
// exactly, regardless of pool size. Scratch pages written with AddPage and
// read for the last time with TakePage mix with pinned pages; once the live
// pages outgrow the pool, both also take their around-the-pool paths.
// --------------------------------------------------------------------------

class BufferPoolFuzzTest : public testing::TestWithParam<size_t> {};

TEST_P(BufferPoolFuzzTest, ContentsSurviveArbitraryWorkloads) {
  const size_t pool_frames = GetParam();
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, pool_frames);
  Rng rng(1000 + pool_frames);
  std::map<PageId, uint64_t> reference;  // page -> stamp written at offset 0
  const auto pick = [&rng, &reference] {
    auto it = reference.begin();
    std::advance(it, rng.Uniform(reference.size()));
    return it;
  };

  for (int op = 0; op < 3000; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.15 || reference.empty()) {
      auto guard = pool.NewPage();
      ASSERT_TRUE(guard.ok());
      const uint64_t stamp = rng.Next();
      *guard.value().page()->As<uint64_t>() = stamp;
      guard.value().MarkDirty();
      reference[guard.value().id()] = stamp;
    } else if (dice < 0.3) {
      // Scratch write: cached, or around a pool full of unread scratch.
      Page image{};
      const uint64_t stamp = rng.Next();
      *image.As<uint64_t>() = stamp;
      auto id = pool.AddPage(image);
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(reference.count(id.value()), 0u) << "live id handed out";
      reference[id.value()] = stamp;
    } else if (dice < 0.55) {
      // Random read-back.
      auto it = pick();
      auto guard = pool.FetchPage(it->first);
      ASSERT_TRUE(guard.ok());
      ASSERT_EQ(*guard.value().page()->As<uint64_t>(), it->second)
          << "page " << it->first << " corrupted";
    } else if (dice < 0.75) {
      // Rewrite.
      auto it = pick();
      auto guard = pool.FetchPage(it->first);
      ASSERT_TRUE(guard.ok());
      const uint64_t stamp = rng.Next();
      *guard.value().page()->As<uint64_t>() = stamp;
      guard.value().MarkDirty();
      it->second = stamp;
    } else if (dice < 0.9) {
      // Last read: the page leaves the pool and the backend.
      auto it = pick();
      Page out{};
      ASSERT_TRUE(pool.TakePage(it->first, &out).ok());
      ASSERT_EQ(*out.As<uint64_t>(), it->second)
          << "page " << it->first << " corrupted";
      reference.erase(it);
    } else {
      ASSERT_TRUE(pool.FlushAll().ok());
    }
  }
  EXPECT_EQ(backend.LivePages(), reference.size());
  if (pool_frames <= 16) {  // the live pages outgrow the pool
    EXPECT_GT(pool.Stats().bypass_writes, 0u);
    EXPECT_GT(pool.Stats().bypass_reads, 0u);
  }
  // Final full verification straight from the backend after a flush.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (const auto& [id, stamp] : reference) {
    Page raw;
    ASSERT_TRUE(backend.ReadPage(id, &raw).ok());
    EXPECT_EQ(*raw.As<uint64_t>(), stamp);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BufferPoolFuzzTest,
                         testing::Values(1, 2, 4, 16, 128));

// --------------------------------------------------------------------------
// Table heap fuzz against a reference list: random inserts, with the heap
// flushed and reopened through a fresh pool at random points, scan back as
// exactly the records inserted, in order.
// --------------------------------------------------------------------------

class TableHeapFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TableHeapFuzzTest, MatchesReferenceModel) {
  IoStats stats;
  MemoryBackend backend(&stats);
  auto pool = std::make_unique<BufferPool>(&backend, 32);
  auto heap = TableHeap::Create(pool.get());
  ASSERT_TRUE(heap.ok());
  const PageId first = heap->first_page();
  Rng rng(GetParam());

  std::vector<std::string> reference;
  uint64_t reference_bytes = 0;
  int reopens = 0;
  for (int op = 0; op < 2000; ++op) {
    if (rng.NextDouble() < 0.97) {
      std::string record(rng.Uniform(200), 'a');
      for (char& c : record) {
        c = static_cast<char>('a' + rng.Uniform(26));
      }
      ASSERT_TRUE(heap->Insert(record).ok());
      reference_bytes += record.size();
      reference.push_back(std::move(record));
    } else {
      ASSERT_TRUE(pool->FlushAll().ok());
      auto fresh = std::make_unique<BufferPool>(&backend, 32);
      auto reopened = TableHeap::Open(fresh.get(), first);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ(reopened->num_pages(), heap->num_pages());
      EXPECT_EQ(reopened->last_page(), heap->last_page());
      heap = std::move(reopened);
      pool = std::move(fresh);
      ++reopens;
    }
    ASSERT_EQ(heap->live_records(), reference.size());
    ASSERT_EQ(heap->live_bytes(), reference_bytes);
  }
  EXPECT_GT(reopens, 0);

  // A full scan returns exactly the inserted records, in insertion order.
  std::vector<std::string> scanned;
  auto it = heap->Begin();
  while (true) {
    auto more = it.Next();
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    scanned.emplace_back(it.record());
  }
  EXPECT_EQ(scanned, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableHeapFuzzTest,
                         testing::Values(7, 8, 9, 10));

// --------------------------------------------------------------------------
// Maximal / closed itemset summaries on random data.
// --------------------------------------------------------------------------

class ItemsetSummaryTest : public testing::TestWithParam<uint64_t> {
 protected:
  FrequentItemsets MineRandom() {
    QuestOptions gen;
    gen.seed = GetParam();
    gen.num_transactions = 200;
    gen.avg_transaction_size = 5;
    gen.num_items = 14;
    TransactionDb txns = QuestGenerator(gen).Generate();
    MiningOptions options;
    options.min_support = 0.05;
    BruteForceMiner miner;
    auto result = miner.Mine(txns, options);
    EXPECT_TRUE(result.ok());
    return std::move(result).value().itemsets;
  }
};

TEST_P(ItemsetSummaryTest, MaximalSetsHaveNoFrequentSuperset) {
  FrequentItemsets itemsets = MineRandom();
  auto maximal = MaximalItemsets(itemsets);
  ASSERT_FALSE(maximal.empty());
  std::set<std::string> maximal_keys;
  for (const PatternCount& m : maximal) maximal_keys.insert(ItemsetKey(m.items));
  // (a) no maximal set is a subset of another frequent set of larger size;
  for (const PatternCount& m : maximal) {
    for (size_t k = m.items.size() + 1; k <= itemsets.MaxSize(); ++k) {
      for (const PatternCount& q : itemsets.OfSize(k)) {
        EXPECT_FALSE(std::includes(q.items.begin(), q.items.end(),
                                   m.items.begin(), m.items.end()))
            << "maximal set has frequent superset";
      }
    }
  }
  // (b) every frequent set is a subset of some maximal set.
  for (size_t k = 1; k <= itemsets.MaxSize(); ++k) {
    for (const PatternCount& p : itemsets.OfSize(k)) {
      bool covered = false;
      for (const PatternCount& m : maximal) {
        if (std::includes(m.items.begin(), m.items.end(), p.items.begin(),
                          p.items.end())) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered);
    }
  }
}

TEST_P(ItemsetSummaryTest, ClosedSetsPreserveAllSupports) {
  FrequentItemsets itemsets = MineRandom();
  auto closed = ClosedItemsets(itemsets);
  ASSERT_FALSE(closed.empty());
  // Every frequent set's support is recoverable from the closed summary.
  for (size_t k = 1; k <= itemsets.MaxSize(); ++k) {
    for (const PatternCount& p : itemsets.OfSize(k)) {
      EXPECT_EQ(SupportFromClosed(closed, p.items), p.count)
          << "support lost for a frequent set of size " << k;
    }
  }
  // Closed is a superset of maximal and a subset of all frequent sets.
  auto maximal = MaximalItemsets(itemsets);
  EXPECT_LE(maximal.size(), closed.size());
  EXPECT_LE(closed.size(), itemsets.TotalPatterns());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemsetSummaryTest,
                         testing::Values(31, 32, 33, 34));

}  // namespace
}  // namespace setm
