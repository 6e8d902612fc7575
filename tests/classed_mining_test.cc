// Tests for the customer-class extension (the paper's announced future
// work): per-class frequent itemsets from per-class runs of the SETM
// pipeline, under every physical knob.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baselines/brute_force.h"
#include "core/classed_mining.h"
#include "core/paper_example.h"
#include "core/rules.h"
#include "datagen/quest_generator.h"

namespace setm {
namespace {

// Partition-equivalence: classed mining over labeled transactions must
// equal mining each class's transactions separately — for every storage
// backing, count method and thread count.
using ClassedParam = std::tuple<uint64_t, TableBacking, CountMethod, size_t>;

class ClassedEquivalenceTest : public testing::TestWithParam<ClassedParam> {};

TEST_P(ClassedEquivalenceTest, MatchesPerPartitionMining) {
  QuestOptions gen;
  gen.seed = std::get<0>(GetParam());
  gen.num_transactions = 300;
  gen.avg_transaction_size = 5;
  gen.num_items = 20;
  TransactionDb txns = QuestGenerator(gen).Generate();

  // Assign classes round-robin: 0, 1, 2.
  CustomerClasses classes;
  std::map<ClassId, TransactionDb> partitions;
  for (size_t i = 0; i < txns.size(); ++i) {
    const ClassId cls = static_cast<ClassId>(i % 3);
    classes.assignments.emplace_back(txns[i].id, cls);
    partitions[cls].push_back(txns[i]);
  }

  MiningOptions options;
  options.min_support = 0.05;

  SetmOptions knobs;
  knobs.storage = std::get<1>(GetParam());
  knobs.count_method = std::get<2>(GetParam());
  knobs.num_threads = std::get<3>(GetParam());
  Database db;
  ClassedSetmMiner miner(&db, knobs);
  auto classed = miner.Mine(txns, classes, options);
  ASSERT_TRUE(classed.ok()) << classed.status().ToString();

  for (auto& [cls, partition] : partitions) {
    BruteForceMiner oracle;
    auto expected = oracle.Mine(partition, options);
    ASSERT_TRUE(expected.ok());
    auto it = classed.value().per_class.find(cls);
    ASSERT_NE(it, classed.value().per_class.end()) << "class " << cls;
    EXPECT_TRUE(it->second == expected.value().itemsets)
        << "class " << cls << ": classed found " << it->second.TotalPatterns()
        << ", partition oracle " << expected.value().itemsets.TotalPatterns();
    EXPECT_EQ(it->second.num_transactions, partition.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndKnobs, ClassedEquivalenceTest,
    testing::Combine(testing::Values(101, 102, 103, 104),
                     testing::Values(TableBacking::kMemory,
                                     TableBacking::kHeap),
                     testing::Values(CountMethod::kSortMerge,
                                     CountMethod::kHash),
                     testing::Values(size_t{1}, size_t{3})),
    [](const testing::TestParamInfo<ClassedParam>& p) {
      return "seed" + std::to_string(std::get<0>(p.param)) +
             (std::get<1>(p.param) == TableBacking::kHeap ? "_heap"
                                                             : "_memory") +
             (std::get<2>(p.param) == CountMethod::kHash ? "_hash"
                                                            : "_sortmerge") +
             "_threads" + std::to_string(std::get<3>(p.param));
    });

// ClassedMiningResult::iterations is, per k, the sum of the per-class
// serial setm runs' relation sizes, for both count methods and with the
// filter_r1 ablation on or off.
class ClassedIterationStatsTest
    : public testing::TestWithParam<std::tuple<CountMethod, bool>> {};

TEST_P(ClassedIterationStatsTest, SumPerPartitionSerialRuns) {
  QuestOptions gen;
  gen.seed = 17;
  gen.num_transactions = 900;
  gen.avg_transaction_size = 6;
  gen.num_items = 150;  // enough rare items for filter_r1 to bite
  TransactionDb txns = QuestGenerator(gen).Generate();
  CustomerClasses classes;
  std::map<ClassId, TransactionDb> partitions;
  for (size_t i = 0; i < txns.size(); ++i) {
    const ClassId cls = static_cast<ClassId>(i % 3);
    classes.assignments.emplace_back(txns[i].id, cls);
    partitions[cls].push_back(txns[i]);
  }
  MiningOptions options;
  options.min_support = 0.02;
  options.filter_r1 = std::get<1>(GetParam());
  SetmOptions knobs;
  knobs.count_method = std::get<0>(GetParam());

  Database db;
  auto classed = ClassedSetmMiner(&db, knobs).Mine(txns, classes, options);
  ASSERT_TRUE(classed.ok()) << classed.status().ToString();

  std::vector<IterationStats> expected;
  for (const auto& [cls, partition] : partitions) {
    Database part_db;
    auto serial = SetmMiner(&part_db, knobs).Mine(partition, options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (const IterationStats& stats : serial.value().iterations) {
      if (expected.size() < stats.k) expected.resize(stats.k);
      IterationStats& sum = expected[stats.k - 1];
      sum.k = stats.k;
      sum.r_prime_rows += stats.r_prime_rows;
      sum.r_rows += stats.r_rows;
      sum.c_size += stats.c_size;
    }
  }
  const std::vector<IterationStats>& got = classed.value().iterations;
  ASSERT_GE(expected.size(), 3u);  // the input reaches 3-itemsets
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("k=" + std::to_string(i + 1));
    EXPECT_EQ(got[i].k, expected[i].k);
    EXPECT_EQ(got[i].r_prime_rows, expected[i].r_prime_rows);
    EXPECT_EQ(got[i].r_rows, expected[i].r_rows);
    EXPECT_EQ(got[i].c_size, expected[i].c_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CountMethods, ClassedIterationStatsTest,
    testing::Combine(testing::Values(CountMethod::kSortMerge,
                                     CountMethod::kHash),
                     testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<CountMethod, bool>>& p) {
      return std::string(std::get<0>(p.param) == CountMethod::kHash
                             ? "hash"
                             : "sortmerge") +
             (std::get<1>(p.param) ? "_filter_r1" : "");
    });

/// Vetoes the run once iteration `veto_k` completes.
class VetoObserver : public MiningObserver {
 public:
  explicit VetoObserver(size_t veto_k) : veto_k_(veto_k) {}
  bool OnIteration(const IterationStats& stats) override {
    ks.push_back(stats.k);
    return stats.k != veto_k_;
  }
  std::vector<size_t> ks;

 private:
  size_t veto_k_;
};

TEST(ClassedMiningTest, ObserverVetoCancels) {
  CustomerClasses classes;
  for (TransactionId tid : {60, 70, 80, 90, 99}) {
    classes.assignments.emplace_back(tid, 2);
  }
  MiningOptions options = PaperExampleOptions();
  VetoObserver observer(/*veto_k=*/2);
  options.observer = &observer;
  Database db;
  auto result =
      ClassedSetmMiner(&db).Mine(PaperExampleTransactions(), classes, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  // Class 0 (the default class, first in ascending order) reached k = 2 and
  // was vetoed there; class 2 never started.
  EXPECT_EQ(observer.ks, (std::vector<size_t>{1, 2}));
}

TEST(ClassedMiningTest, UnlabeledTransactionsFallIntoDefaultClass) {
  Database db;
  ClassedSetmMiner miner(&db);
  auto result = miner.Mine(PaperExampleTransactions(), CustomerClasses{},
                           PaperExampleOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().per_class.size(), 1u);
  const FrequentItemsets& sets =
      result.value().per_class.at(CustomerClasses::kDefaultClass);
  // Identical to plain SETM on the paper example.
  EXPECT_EQ(sets.OfSize(1).size(), 6u);
  EXPECT_EQ(sets.OfSize(2).size(), 6u);
  EXPECT_EQ(sets.OfSize(3).size(), 1u);
}

TEST(ClassedMiningTest, PerClassSupportThresholds) {
  // Class 1: transactions 10..50 (5 txns); class 2: 60..99 (5 txns).
  // Pattern DEF occurs 3x, all in class 2 -> frequent there at 60%,
  // absent from class 1.
  CustomerClasses classes;
  for (TransactionId tid : {10, 20, 30, 40, 50}) {
    classes.assignments.emplace_back(tid, 1);
  }
  for (TransactionId tid : {60, 70, 80, 90, 99}) {
    classes.assignments.emplace_back(tid, 2);
  }
  MiningOptions options;
  options.min_support = 0.60;  // 3 of 5 per class
  Database db;
  ClassedSetmMiner miner(&db);
  auto result = miner.Mine(PaperExampleTransactions(), classes, options);
  ASSERT_TRUE(result.ok());
  const auto& class1 = result.value().per_class.at(1);
  const auto& class2 = result.value().per_class.at(2);
  EXPECT_EQ(class2.CountOf({3, 4, 5}), 3);  // DEF in class 2
  EXPECT_EQ(class1.CountOf({3, 4, 5}), 0);
  // AB occurs in 10, 20, 30 — all class 1, 3/5 = 60% there.
  EXPECT_EQ(class1.CountOf({0, 1}), 3);
  EXPECT_EQ(class2.CountOf({0, 1}), 0);
}

TEST(ClassedMiningTest, DuplicateAssignmentRejected) {
  CustomerClasses classes;
  classes.assignments.emplace_back(10, 1);
  classes.assignments.emplace_back(10, 2);
  Database db;
  ClassedSetmMiner miner(&db);
  auto result =
      miner.Mine(PaperExampleTransactions(), classes, PaperExampleOptions());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(ClassedMiningTest, RulesPerClass) {
  CustomerClasses classes;
  for (TransactionId tid : {80, 90, 99}) classes.assignments.emplace_back(tid, 7);
  MiningOptions options;
  options.min_support = 0.9;  // within class 7: all three DEF transactions
  options.min_confidence = 0.9;
  Database db;
  ClassedSetmMiner miner(&db);
  auto result = miner.Mine(PaperExampleTransactions(), classes, options);
  ASSERT_TRUE(result.ok());
  auto rules =
      GenerateRules(result.value().per_class.at(7), options).value();
  // DEF is 100% of class 7: every rule over {D,E,F} holds at 100%.
  EXPECT_EQ(rules.size(), 9u);  // 3 pairs x 2 + 1 triple x 3
}

TEST(ClassedMiningTest, HeapBackingAgreesWithMemory) {
  QuestOptions gen;
  gen.seed = 321;
  gen.num_transactions = 200;
  gen.avg_transaction_size = 4;
  gen.num_items = 15;
  TransactionDb txns = QuestGenerator(gen).Generate();
  CustomerClasses classes;
  for (size_t i = 0; i < txns.size(); ++i) {
    classes.assignments.emplace_back(txns[i].id, static_cast<ClassId>(i % 2));
  }
  MiningOptions options;
  options.min_support = 0.05;
  Database db1, db2;
  auto mem = ClassedSetmMiner(&db1, SetmOptions{TableBacking::kMemory})
                 .Mine(txns, classes, options);
  auto heap = ClassedSetmMiner(&db2, SetmOptions{TableBacking::kHeap})
                  .Mine(txns, classes, options);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(heap.ok());
  ASSERT_EQ(mem.value().per_class.size(), heap.value().per_class.size());
  for (auto& [cls, sets] : mem.value().per_class) {
    EXPECT_TRUE(sets == heap.value().per_class.at(cls)) << "class " << cls;
  }
}

}  // namespace
}  // namespace setm
