// Tests for the data generators (Quest-style and retail-calibrated) and
// transaction file I/O.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "baselines/apriori.h"
#include "datagen/quest_generator.h"
#include "datagen/retail_generator.h"
#include "datagen/transaction_io.h"

namespace setm {
namespace {

// --------------------------------------------------------------------------
// QuestGenerator
// --------------------------------------------------------------------------

TEST(QuestGeneratorTest, DeterministicForSeed) {
  QuestOptions options;
  options.num_transactions = 200;
  options.seed = 5;
  TransactionDb a = QuestGenerator(options).Generate();
  TransactionDb b = QuestGenerator(options).Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].items, b[i].items);
  }
}

TEST(QuestGeneratorTest, DifferentSeedsDiffer) {
  QuestOptions options;
  options.num_transactions = 100;
  options.seed = 1;
  TransactionDb a = QuestGenerator(options).Generate();
  options.seed = 2;
  TransactionDb b = QuestGenerator(options).Generate();
  int differing = 0;
  for (size_t i = 0; i < a.size(); ++i) differing += !(a[i].items == b[i].items);
  EXPECT_GT(differing, 50);
}

TEST(QuestGeneratorTest, OutputIsValidAndSized) {
  QuestOptions options;
  options.num_transactions = 500;
  options.avg_transaction_size = 8;
  options.num_items = 100;
  TransactionDb db = QuestGenerator(options).Generate();
  ASSERT_EQ(db.size(), 500u);
  ASSERT_TRUE(ValidateTransactions(db).ok());
  uint64_t total = 0;
  for (const auto& t : db) {
    EXPECT_FALSE(t.items.empty());
    for (ItemId item : t.items) {
      EXPECT_GE(item, 0);
      EXPECT_LT(item, 100);
    }
    total += t.items.size();
  }
  const double avg = static_cast<double>(total) / 500.0;
  EXPECT_GT(avg, 4.0);
  EXPECT_LT(avg, 12.0);
}

TEST(QuestGeneratorTest, PlantedPatternsCreateFrequentItemsets) {
  // With low corruption and few patterns, frequent 2-itemsets must appear.
  QuestOptions options;
  options.num_transactions = 1000;
  options.avg_transaction_size = 8;
  options.num_items = 200;
  options.num_patterns = 10;
  options.corruption = 0.2;
  TransactionDb db = QuestGenerator(options).Generate();
  AprioriMiner miner;
  MiningOptions mining;
  mining.min_support = 0.02;
  auto result = miner.Mine(db, mining);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().itemsets.MaxSize(), 1u)
      << "planted patterns should produce frequent pairs";
}

TEST(QuestGeneratorTest, DatasetName) {
  QuestOptions options;
  options.avg_transaction_size = 10;
  options.avg_pattern_size = 4;
  options.num_transactions = 100000;
  EXPECT_EQ(QuestDatasetName(options), "T10.I4.D100K");
}

// --------------------------------------------------------------------------
// RetailGenerator: calibration against the paper's data-set statistics.
// --------------------------------------------------------------------------

class RetailCalibrationTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    RetailOptions options;  // paper-calibrated defaults
    db_ = new TransactionDb(RetailGenerator(options).Generate());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static TransactionDb* db_;
};

TransactionDb* RetailCalibrationTest::db_ = nullptr;

TEST_F(RetailCalibrationTest, TransactionCountMatchesPaper) {
  EXPECT_EQ(db_->size(), 46873u);
  ASSERT_TRUE(ValidateTransactions(*db_).ok());
}

TEST_F(RetailCalibrationTest, SalesTupleCountNearPaper) {
  // |R1| = 115,568 in the paper; calibration within ~4%.
  const uint64_t tuples = CountSalesTuples(*db_);
  EXPECT_GT(tuples, 110000u);
  EXPECT_LT(tuples, 121000u);
}

TEST_F(RetailCalibrationTest, C1At01PercentIs59) {
  AprioriMiner miner;
  MiningOptions options;
  options.min_support = 0.001;
  options.max_pattern_length = 1;
  auto result = miner.Mine(*db_, options);
  ASSERT_TRUE(result.ok());
  // All 59 core items frequent at 0.1%, and no tail item sneaks in.
  EXPECT_EQ(result.value().itemsets.OfSize(1).size(), 59u);
}

TEST_F(RetailCalibrationTest, MaxPatternLengthIsThree) {
  AprioriMiner miner;
  MiningOptions options;
  options.min_support = 0.001;
  auto result = miner.Mine(*db_, options);
  ASSERT_TRUE(result.ok());
  // C3 non-empty, C4 empty — "the maximum size of the rules is 3".
  EXPECT_GE(result.value().itemsets.OfSize(3).size(), 1u);
  EXPECT_EQ(result.value().itemsets.OfSize(4).size(), 0u);
}

TEST_F(RetailCalibrationTest, TriplesSurviveFivePercentSupport) {
  AprioriMiner miner;
  MiningOptions options;
  options.min_support = 0.05;
  auto result = miner.Mine(*db_, options);
  ASSERT_TRUE(result.ok());
  // The planted triples keep C3 non-empty across the whole paper sweep.
  EXPECT_GE(result.value().itemsets.OfSize(3).size(), 1u);
  EXPECT_EQ(result.value().itemsets.OfSize(4).size(), 0u);
}

TEST_F(RetailCalibrationTest, C2BumpsAboveC1AtSmallSupport) {
  AprioriMiner miner;
  MiningOptions small;
  small.min_support = 0.001;
  auto at_small = miner.Mine(*db_, small);
  ASSERT_TRUE(at_small.ok());
  // Figure 6's shape: |C2| > |C1| at 0.1%...
  EXPECT_GT(at_small.value().itemsets.OfSize(2).size(),
            at_small.value().itemsets.OfSize(1).size());
  // ...but far below it at 5%.
  MiningOptions large;
  large.min_support = 0.05;
  auto at_large = miner.Mine(*db_, large);
  ASSERT_TRUE(at_large.ok());
  EXPECT_LT(at_large.value().itemsets.OfSize(2).size(),
            at_large.value().itemsets.OfSize(1).size());
}

TEST_F(RetailCalibrationTest, Deterministic) {
  TransactionDb again = RetailGenerator(RetailOptions{}).Generate();
  ASSERT_EQ(again.size(), db_->size());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(again[i].items, (*db_)[i].items);
  }
}

// --------------------------------------------------------------------------
// Transaction file I/O
// --------------------------------------------------------------------------

TEST(TransactionIoTest, CsvRoundTrip) {
  QuestOptions gen;
  gen.num_transactions = 50;
  gen.seed = 3;
  TransactionDb db = QuestGenerator(gen).Generate();
  const std::string path = testing::TempDir() + "/txns.csv";
  ASSERT_TRUE(SaveTransactionsCsv(path, db).ok());
  auto loaded = LoadTransactionsCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(loaded.value()[i].id, db[i].id);
    EXPECT_EQ(loaded.value()[i].items, db[i].items);
  }
  std::remove(path.c_str());
}

TEST(TransactionIoTest, CsvGroupsAndDeduplicates) {
  const std::string path = testing::TempDir() + "/manual.csv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("trans_id,item\n2,5\n1,9\n1,3\n2,5\n1,9\n", f);
  fclose(f);
  auto loaded = LoadTransactionsCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].id, 1);
  EXPECT_EQ(loaded.value()[0].items, (std::vector<ItemId>{3, 9}));
  EXPECT_EQ(loaded.value()[1].items, (std::vector<ItemId>{5}));
  std::remove(path.c_str());
}

TEST(TransactionIoTest, MissingFileFails) {
  EXPECT_FALSE(LoadTransactionsCsv("/no/such/file.csv").ok());
}

TEST(TransactionIoTest, MalformedCsvFails) {
  const std::string path = testing::TempDir() + "/bad.csv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("1,2\nnot-a-row\n", f);
  fclose(f);
  EXPECT_FALSE(LoadTransactionsCsv(path).ok());
  std::remove(path.c_str());
}

// Ids that do not fit the engine's int32 columns must be refused, not
// wrapped: 4294967297 would otherwise become trans_id 1 and merge into it.
TEST(TransactionIoTest, OutOfRangeIdsFailNamingTheLine) {
  const std::string path = testing::TempDir() + "/range.csv";
  const struct {
    const char* row;
    const char* message;
  } cases[] = {
      {"4294967297,3", "trans_id outside int32"},
      {"2147483648,3", "trans_id outside int32"},
      {"-2147483649,3", "trans_id outside int32"},
      {"99999999999999999999999,3", "trans_id outside int32"},
      {"2,4294967296", "item outside [0, 2147483647]"},
      {"2,2147483648", "item outside [0, 2147483647]"},
      {"2,-1", "item outside [0, 2147483647]"},
  };
  for (const auto& c : cases) {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fprintf(f, "trans_id,item\n1,1\n1,2\n%s\n", c.row);
    fclose(f);
    auto loaded = LoadTransactionsCsv(path);
    ASSERT_FALSE(loaded.ok()) << c.row;
    EXPECT_TRUE(loaded.status().IsInvalidArgument()) << c.row;
    EXPECT_NE(loaded.status().message().find(path + ":4: " + c.message),
              std::string::npos)
        << loaded.status().ToString();
  }
  // The int32 bounds themselves load.
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("trans_id,item\n-2147483648,0\n2147483647,2147483647\n", f);
  fclose(f);
  auto loaded = LoadTransactionsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].id, INT32_MIN);
  EXPECT_EQ(loaded.value()[1].items, (std::vector<ItemId>{INT32_MAX}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace setm
