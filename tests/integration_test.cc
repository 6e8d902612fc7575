// End-to-end integration tests crossing module boundaries: file-backed
// databases, the full SQL + mining pipeline, and determinism of complete
// runs.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/rules.h"
#include "core/setm.h"
#include "core/setm_sql.h"
#include "datagen/quest_generator.h"
#include "datagen/retail_generator.h"
#include "datagen/transaction_io.h"
#include "sql/engine.h"

namespace setm {
namespace {

TEST(IntegrationTest, FileBackedDatabaseMinesCorrectly) {
  const std::string path = testing::TempDir() + "/setm_integration.db";
  QuestOptions gen;
  gen.seed = 900;
  gen.num_transactions = 8000;
  gen.avg_transaction_size = 5;
  gen.num_items = 30;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.04;

  // Reference result from a plain in-memory run.
  FrequentItemsets expected;
  {
    Database mem_db;
    auto r = SetmMiner(&mem_db).Mine(txns, options);
    ASSERT_TRUE(r.ok());
    expected = std::move(r).value().itemsets;
  }

  // File-backed run: pages really go through pread/pwrite.
  {
    DatabaseOptions db_options;
    db_options.file_path = path;
    db_options.pool_frames = 16;  // smaller than the relations: they spill
    auto db = Database::Open(db_options);
    ASSERT_TRUE(db.ok());
    SetmMiner miner(db->get(), SetmOptions{TableBacking::kHeap});
    auto r = miner.Mine(txns, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().itemsets == expected);
    ASSERT_GT(r.value().iterations[0].r_pages, db_options.pool_frames);
    EXPECT_GT(r.value().io.page_writes, 0u);
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, CsvToSqlToRulesPipeline) {
  // CSV file -> catalog table via LoadSalesTable -> SETM-SQL -> rules.
  const std::string path = testing::TempDir() + "/pipeline.csv";
  QuestOptions gen;
  gen.seed = 901;
  gen.num_transactions = 300;
  gen.avg_transaction_size = 4;
  gen.num_items = 15;
  TransactionDb txns = QuestGenerator(gen).Generate();
  ASSERT_TRUE(SaveTransactionsCsv(path, txns).ok());
  auto loaded = LoadTransactionsCsv(path);
  ASSERT_TRUE(loaded.ok());

  Database db;
  auto sales =
      LoadSalesTable(&db, "sales", loaded.value(), TableBacking::kHeap);
  ASSERT_TRUE(sales.ok());
  MiningOptions options;
  options.min_support = 0.05;
  options.min_confidence = 0.5;
  SetmSqlMiner miner(&db, TableBacking::kHeap);
  auto result = miner.MineTable(*sales.value(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rules = GenerateRules(result.value().itemsets, options).value();
  for (const auto& r : rules) {
    EXPECT_GE(r.confidence + 1e-12, 0.5);
    EXPECT_GE(r.support + 1e-12, 0.05);
  }
  // The scratch relations are inspectable as ordinary catalog tables.
  sql::SqlEngine engine(&db);
  auto c1 = engine.Execute("SELECT item1, cnt FROM setm_c1 ORDER BY item1");
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1.value().rows.size(), result.value().itemsets.OfSize(1).size());
  std::remove(path.c_str());
}

TEST(IntegrationTest, FullRunsAreDeterministic) {
  RetailOptions retail;
  retail.num_transactions = 5000;  // trimmed for test time
  TransactionDb txns = RetailGenerator(retail).Generate();
  MiningOptions options;
  options.min_support = 0.005;
  options.min_confidence = 0.6;

  std::vector<std::string> renders;
  for (int run = 0; run < 2; ++run) {
    Database db;
    auto result = SetmMiner(&db).Mine(txns, options);
    ASSERT_TRUE(result.ok());
    auto rules = GenerateRules(result.value().itemsets, options).value();
    std::string render;
    for (const auto& r : rules) render += FormatRule(r) + "\n";
    renders.push_back(std::move(render));
  }
  EXPECT_EQ(renders[0], renders[1]);
  EXPECT_FALSE(renders[0].empty());
}

TEST(IntegrationTest, SqlEngineSurvivesMiningScratchReuse) {
  // Interleave ad-hoc SQL with repeated mining runs over the same catalog.
  Database db;
  sql::SqlEngine engine(&db);
  QuestOptions gen;
  gen.num_transactions = 100;
  gen.avg_transaction_size = 4;
  gen.num_items = 10;
  gen.seed = 5;
  auto sales = LoadSalesTable(&db, "sales", QuestGenerator(gen).Generate(),
                              TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  SetmSqlMiner miner(&db);
  MiningOptions options;
  options.min_support = 0.05;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(miner.MineTable(*sales.value(), options).ok())
        << "round " << round;
    auto count = engine.Execute("SELECT DISTINCT trans_id FROM sales");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value().rows.size(), 100u);
  }
}

TEST(IntegrationTest, TinyPoolsStillProduceCorrectResults) {
  // Starved resources must cost I/O, never correctness.
  QuestOptions gen;
  gen.seed = 902;
  gen.num_transactions = 400;
  gen.avg_transaction_size = 6;
  gen.num_items = 25;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.03;

  FrequentItemsets expected;
  {
    Database db;
    auto r = SetmMiner(&db).Mine(txns, options);
    ASSERT_TRUE(r.ok());
    expected = std::move(r).value().itemsets;
  }
  DatabaseOptions starved;
  starved.pool_frames = 8;
  starved.sort_memory_bytes = 512;
  Database db(starved);
  SetmMiner miner(&db, SetmOptions{TableBacking::kHeap});
  auto r = miner.Mine(txns, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().itemsets == expected);
}

}  // namespace
}  // namespace setm
