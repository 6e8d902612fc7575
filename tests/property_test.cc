// Randomized property tests: storage-layer fuzzing against reference
// models, and mining summaries (maximal/closed itemsets) checked against
// their definitions on random databases.

#include <gtest/gtest.h>

#include <map>
#include <set>

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
// exactly, regardless of pool size.
// --------------------------------------------------------------------------

class BufferPoolFuzzTest : public testing::TestWithParam<size_t> {};

TEST_P(BufferPoolFuzzTest, ContentsSurviveArbitraryWorkloads) {
  const size_t pool_frames = GetParam();
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, pool_frames);
  Rng rng(1000 + pool_frames);
  std::map<PageId, uint64_t> reference;  // page -> stamp written at offset 0

  for (int op = 0; op < 3000; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.25 || reference.empty()) {
      auto guard = pool.NewPage();
      ASSERT_TRUE(guard.ok());
      const uint64_t stamp = rng.Next();
      *guard.value().page()->As<uint64_t>() = stamp;
      guard.value().MarkDirty();
      reference[guard.value().id()] = stamp;
    } else if (dice < 0.65) {
      // Random read-back.
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      auto guard = pool.FetchPage(it->first);
      ASSERT_TRUE(guard.ok());
      ASSERT_EQ(*guard.value().page()->As<uint64_t>(), it->second)
          << "page " << it->first << " corrupted";
    } else if (dice < 0.9) {
      // Rewrite.
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      auto guard = pool.FetchPage(it->first);
      ASSERT_TRUE(guard.ok());
      const uint64_t stamp = rng.Next();
      *guard.value().page()->As<uint64_t>() = stamp;
      guard.value().MarkDirty();
      it->second = stamp;
    } else {
      ASSERT_TRUE(pool.FlushAll().ok());
    }
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
// Table heap fuzz against a reference map.
// --------------------------------------------------------------------------

class TableHeapFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TableHeapFuzzTest, MatchesReferenceModel) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 32);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  Rng rng(GetParam());

  std::map<std::pair<PageId, uint16_t>, std::string> reference;
  std::vector<Rid> live;

  for (int op = 0; op < 2000; ++op) {
    if (rng.NextDouble() < 0.7 || live.empty()) {
      std::string record(1 + rng.Uniform(200), 'a');
      for (char& c : record) {
        c = static_cast<char>('a' + rng.Uniform(26));
      }
      auto rid = heap->Insert(record);
      ASSERT_TRUE(rid.ok());
      reference[{rid.value().page_id, rid.value().slot}] = record;
      live.push_back(rid.value());
    } else {
      const size_t pick = rng.Uniform(live.size());
      const Rid rid = live[pick];
      ASSERT_TRUE(heap->Delete(rid).ok());
      reference.erase({rid.page_id, rid.slot});
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
  }

  EXPECT_EQ(heap->live_records(), reference.size());
  // Point lookups agree.
  for (const auto& [key, record] : reference) {
    std::string out;
    ASSERT_TRUE(heap->Get(Rid{key.first, key.second}, &out).ok());
    EXPECT_EQ(out, record);
  }
  // Full iteration visits exactly the live set.
  size_t seen = 0;
  auto it = heap->Begin();
  while (true) {
    auto more = it.Next();
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    auto ref = reference.find({it.rid().page_id, it.rid().slot});
    ASSERT_NE(ref, reference.end());
    EXPECT_EQ(it.record(), ref->second);
    ++seen;
  }
  EXPECT_EQ(seen, reference.size());
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
