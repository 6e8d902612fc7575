// Unit tests for the baseline miners' internals: the Apriori hash tree,
// candidate generation and AIS/brute-force behaviours not covered by the
// cross-miner equivalence suite.

#include <gtest/gtest.h>

#include <map>

#include "baselines/apriori.h"
#include "baselines/brute_force.h"
#include "baselines/hash_tree.h"
#include "common/random.h"
#include "core/paper_example.h"
#include "datagen/quest_generator.h"
#include "exec/worker_pool.h"

namespace setm {
namespace {

// --------------------------------------------------------------------------
// HashTree
// --------------------------------------------------------------------------

TEST(HashTreeTest, CountsContainedCandidates) {
  HashTree tree(2);
  tree.Insert({1, 2});
  tree.Insert({1, 3});
  tree.Insert({2, 3});
  tree.CountTransaction({1, 2, 3});  // contains all three
  tree.CountTransaction({1, 3});     // contains {1,3} only
  tree.CountTransaction({4, 5});     // contains none
  std::map<std::vector<ItemId>, int64_t> counts;
  tree.ForEach([&](const std::vector<ItemId>& items, int64_t count) {
    counts[items] = count;
  });
  EXPECT_EQ((counts[{1, 2}]), 1);  // only in the first transaction
  EXPECT_EQ((counts[{1, 3}]), 2);
  EXPECT_EQ((counts[{2, 3}]), 1);
}

TEST(HashTreeTest, NoDoubleCountingThroughMultiplePaths) {
  // With few buckets, multiple hash paths of one transaction can reach the
  // same leaf; the stamp must keep each candidate counted at most once.
  HashTree tree(2, /*max_leaf=*/1, /*buckets=*/2);
  for (ItemId a = 0; a < 6; ++a) {
    for (ItemId b = a + 1; b < 6; ++b) tree.Insert({a, b});
  }
  tree.CountTransaction({0, 1, 2, 3, 4, 5});
  tree.ForEach([&](const std::vector<ItemId>& items, int64_t count) {
    EXPECT_EQ(count, 1) << items[0] << "," << items[1];
  });
}

TEST(HashTreeTest, MatchesNaiveCountingOnRandomData) {
  Rng rng(71);
  // Random candidate set of 3-itemsets over 12 items.
  std::set<std::vector<ItemId>> candidates;
  while (candidates.size() < 40) {
    std::set<ItemId> s;
    while (s.size() < 3) s.insert(static_cast<ItemId>(rng.Uniform(12)));
    candidates.insert(std::vector<ItemId>(s.begin(), s.end()));
  }
  HashTree tree(3, 4, 5);
  for (const auto& c : candidates) tree.Insert(c);
  EXPECT_EQ(tree.size(), 40u);

  std::map<std::vector<ItemId>, int64_t> naive;
  for (int t = 0; t < 300; ++t) {
    std::set<ItemId> txn_set;
    const size_t len = 2 + rng.Uniform(7);
    while (txn_set.size() < len) {
      txn_set.insert(static_cast<ItemId>(rng.Uniform(12)));
    }
    std::vector<ItemId> txn(txn_set.begin(), txn_set.end());
    tree.CountTransaction(txn);
    for (const auto& c : candidates) {
      if (std::includes(txn.begin(), txn.end(), c.begin(), c.end())) {
        ++naive[c];
      }
    }
  }
  tree.ForEach([&](const std::vector<ItemId>& items, int64_t count) {
    EXPECT_EQ(count, naive[items]) << "candidate mismatch";
  });
}

TEST(HashTreeTest, ShortTransactionsSkipped) {
  HashTree tree(3);
  tree.Insert({1, 2, 3});
  tree.CountTransaction({1, 2});  // too short to contain any 3-itemset
  tree.ForEach([&](const std::vector<ItemId>&, int64_t count) {
    EXPECT_EQ(count, 0);
  });
}

// --------------------------------------------------------------------------
// Apriori candidate generation
// --------------------------------------------------------------------------

TEST(AprioriCandidatesTest, JoinsSharedPrefixes) {
  // L2 = {12, 13, 14, 23}. Join: 123 (from 12+13), 124 (12+14), 134 (13+14).
  // Prune: 123 needs {23} ok; 124 needs {24} missing -> dropped;
  // 134 needs {34} missing -> dropped.
  auto candidates = AprioriMiner::GenerateCandidates(
      {{1, 2}, {1, 3}, {1, 4}, {2, 3}});
  EXPECT_EQ(candidates,
            (std::vector<std::vector<ItemId>>{{1, 2, 3}}));
}

TEST(AprioriCandidatesTest, Level2FromSingletons) {
  auto candidates = AprioriMiner::GenerateCandidates({{1}, {3}, {7}});
  EXPECT_EQ(candidates, (std::vector<std::vector<ItemId>>{
                            {1, 3}, {1, 7}, {3, 7}}));
}

TEST(AprioriCandidatesTest, EmptyInput) {
  EXPECT_TRUE(AprioriMiner::GenerateCandidates({}).empty());
}

TEST(AprioriCandidatesTest, NoJoinableMembers) {
  EXPECT_TRUE(AprioriMiner::GenerateCandidates({{1, 2}, {3, 4}}).empty());
}

// --------------------------------------------------------------------------
// Apriori count distribution: any thread count is identical to serial
// --------------------------------------------------------------------------

void ExpectSameAsSerial(const TransactionDb& txns, const MiningOptions& options,
                        AprioriMiner miner) {
  auto serial = AprioriMiner().Mine(txns, options);
  auto threaded = miner.Mine(txns, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  EXPECT_TRUE(threaded.value().itemsets == serial.value().itemsets);
  EXPECT_EQ(threaded.value().itemsets.num_transactions, txns.size());
  const auto& want = serial.value().iterations;
  const auto& got = threaded.value().iterations;
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].k, want[i].k);
    EXPECT_EQ(got[i].r_prime_rows, want[i].r_prime_rows) << "k=" << want[i].k;
    EXPECT_EQ(got[i].c_size, want[i].c_size) << "k=" << want[i].k;
  }
}

TransactionDb AprioriTestData() {
  QuestOptions gen;
  gen.seed = 4321;
  gen.num_transactions = 500;
  gen.avg_transaction_size = 6;
  gen.num_items = 25;
  return QuestGenerator(gen).Generate();
}

TEST(AprioriThreadsTest, MatchesSerialAtAnyThreadCount) {
  const TransactionDb txns = AprioriTestData();
  MiningOptions options;
  options.min_support = 0.03;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectSameAsSerial(txns, options, AprioriMiner(threads));
  }
}

TEST(AprioriThreadsTest, MoreThreadsThanTransactions) {
  ExpectSameAsSerial(PaperExampleTransactions(), PaperExampleOptions(),
                     AprioriMiner(/*num_threads=*/64));
}

TEST(AprioriThreadsTest, EmptyDatabase) {
  ExpectSameAsSerial(TransactionDb{}, PaperExampleOptions(),
                     AprioriMiner(/*num_threads=*/4));
}

TEST(AprioriThreadsTest, CallerSuppliedPool) {
  const TransactionDb txns = AprioriTestData();
  MiningOptions options;
  options.min_support = 0.03;
  WorkerPool pool(3);
  ExpectSameAsSerial(txns, options, AprioriMiner(/*num_threads=*/4, &pool));
}

// --------------------------------------------------------------------------
// Oracle behaviours
// --------------------------------------------------------------------------

TEST(BruteForceTest, CountsExactSupports) {
  TransactionDb txns{
      {1, {1, 2, 3}}, {2, {1, 2}}, {3, {1, 3}}, {4, {2, 3}}, {5, {1, 2, 3}}};
  MiningOptions options;
  options.min_support_count = 2;
  BruteForceMiner miner;
  auto result = miner.Mine(txns, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.CountOf({1}), 4);
  EXPECT_EQ(result.value().itemsets.CountOf({1, 2}), 3);
  EXPECT_EQ(result.value().itemsets.CountOf({1, 2, 3}), 2);
}

TEST(BruteForceTest, MinSupportBoundary) {
  TransactionDb txns{{1, {1}}, {2, {1}}, {3, {2}}};
  MiningOptions options;
  options.min_support_count = 2;
  BruteForceMiner miner;
  auto result = miner.Mine(txns, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.CountOf({1}), 2);  // exactly at floor
  EXPECT_EQ(result.value().itemsets.CountOf({2}), 0);  // below
}

// Apriori's per-level candidate counts must never be below the number of
// frequent itemsets at that level (candidates are a superset of L_k), and
// AIS always generates at least as many candidates as Apriori on the same
// data (no prune step).
TEST(BaselineStatsTest, CandidateCountsDominateFrequentCounts) {
  QuestOptions gen;
  gen.seed = 1234;
  gen.num_transactions = 300;
  gen.avg_transaction_size = 6;
  gen.num_items = 20;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.03;
  AprioriMiner apriori;
  auto result = apriori.Mine(txns, options);
  ASSERT_TRUE(result.ok());
  for (const auto& iter : result.value().iterations) {
    EXPECT_GE(iter.r_prime_rows, iter.c_size) << "level " << iter.k;
  }
}

}  // namespace
}  // namespace setm
