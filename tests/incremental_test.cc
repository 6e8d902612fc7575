// Incremental mining subsystem: ItemsetStore round-trips (store -> load ->
// identical result) across both TableBackings and the edge cases, SQL
// visibility of the materialized relations, and the exactness of appends
// answered through the MiningPlanner — bit-identical itemsets vs a full
// remine of the combined database over seeds x backings x batch sizes, on
// both the delta-derive path and the full-mine path above the budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/brute_force.h"
#include "core/mining_planner.h"
#include "core/paper_example.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "incremental/itemset_store.h"
#include "sql/engine.h"

namespace setm {
namespace {

TransactionDb MakeQuestDb(uint64_t seed, uint32_t num_transactions,
                          uint32_t num_items = 20) {
  QuestOptions gen;
  gen.seed = seed;
  gen.num_transactions = num_transactions;
  gen.avg_transaction_size = 5;
  gen.num_items = num_items;
  gen.num_patterns = 15;
  return QuestGenerator(gen).Generate();
}

/// A fresh batch whose transaction ids continue after `start_after`.
TransactionDb MakeBatch(uint64_t seed, uint32_t count,
                        TransactionId start_after, uint32_t num_items = 20) {
  TransactionDb batch = MakeQuestDb(seed, count, num_items);
  for (Transaction& t : batch) t.id += start_after;
  return batch;
}

/// A planner keeping its run under the store prefix "fi".
PlannerOptions StoreOptions(TableBacking backing) {
  PlannerOptions options;
  options.store_prefix = "fi";
  options.store_backing = backing;
  options.setm.storage = backing;
  return options;
}

/// One planner request over `sales`, appending `append` when given. The
/// first request of a planner mines `sales` and writes the run back.
Result<PlanExecution> Request(MiningPlanner* planner, Table* sales,
                              const MiningOptions& options,
                              const TransactionDb* append = nullptr) {
  PlanRequest request;
  request.table = sales;
  request.append = append;
  request.options = options;
  return planner->Execute(request);
}

// --------------------------------------------------------------------------
// ItemsetStore round-trips.
// --------------------------------------------------------------------------

class ItemsetStoreTest : public testing::TestWithParam<TableBacking> {};

TEST_P(ItemsetStoreTest, RoundTripsAMiningRun) {
  TransactionDb txns = MakeQuestDb(101, 200);
  MiningOptions options;
  options.min_support = 0.05;

  Database db;
  SetmOptions setm_options;
  setm_options.storage = GetParam();
  // The store's meta row names its source relation and Load() reports a
  // dropped source as NotFound, so the round-trip needs SALES in the catalog.
  auto sales_or = LoadSalesTable(&db, "sales", txns, GetParam());
  ASSERT_TRUE(sales_or.ok()) << sales_or.status().ToString();
  auto mined =
      SetmMiner(&db, setm_options).MineTable(*sales_or.value(), options);
  ASSERT_TRUE(mined.ok());
  ASSERT_GT(mined.value().itemsets.TotalPatterns(), 0u);

  ItemsetStore store(&db, "fi", GetParam());
  EXPECT_FALSE(store.Exists());
  StoredRunMeta meta = MakeRunMeta(mined.value().itemsets, options,
                                   MaxTransactionId(txns), "sales");
  ASSERT_TRUE(store.Save(mined.value().itemsets, meta).ok());
  EXPECT_TRUE(store.Exists());

  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().itemsets == mined.value().itemsets);
  EXPECT_EQ(loaded.value().itemsets.num_transactions,
            mined.value().itemsets.num_transactions);
  EXPECT_EQ(loaded.value().meta.num_transactions, meta.num_transactions);
  EXPECT_EQ(loaded.value().meta.min_support_count, meta.min_support_count);
  EXPECT_EQ(loaded.value().meta.spec_min_support, meta.spec_min_support);
  EXPECT_EQ(loaded.value().meta.spec_min_support_count,
            meta.spec_min_support_count);
  EXPECT_EQ(loaded.value().meta.max_pattern_length, meta.max_pattern_length);
  EXPECT_EQ(loaded.value().meta.watermark, meta.watermark);
  EXPECT_EQ(loaded.value().meta.source_table, "sales");
}

TEST_P(ItemsetStoreTest, RoundTripsEmptyResult) {
  Database db;
  ItemsetStore store(&db, "empty", GetParam());
  FrequentItemsets none;
  none.num_transactions = 7;
  MiningOptions options;
  ASSERT_TRUE(
      store.Save(none, MakeRunMeta(none, options, 7)).ok());
  EXPECT_TRUE(store.Exists());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().itemsets.TotalPatterns(), 0u);
  EXPECT_EQ(loaded.value().itemsets.MaxSize(), 0u);
  EXPECT_EQ(loaded.value().meta.num_transactions, 7u);
  // No level relations exist for an empty run.
  EXPECT_FALSE(db.catalog()->HasTable(store.LevelTableName(1)));
}

TEST_P(ItemsetStoreTest, RoundTripsSizeOneOnlyResult) {
  TransactionDb txns = MakeQuestDb(202, 150);
  MiningOptions options;
  options.min_support = 0.05;
  options.max_pattern_length = 1;  // C_1 only

  Database db;
  auto mined = SetmMiner(&db).Mine(txns, options);
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined.value().itemsets.MaxSize(), 1u);

  ItemsetStore store(&db, "single", GetParam());
  ASSERT_TRUE(store
                  .Save(mined.value().itemsets,
                        MakeRunMeta(mined.value().itemsets, options,
                                    MaxTransactionId(txns)))
                  .ok());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().itemsets == mined.value().itemsets);
}

TEST_P(ItemsetStoreTest, RoundTripsMaxKRun) {
  // The paper's worked example reaches k = 3 with exact counts.
  Database db;
  auto mined =
      SetmMiner(&db).Mine(PaperExampleTransactions(), PaperExampleOptions());
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined.value().itemsets.MaxSize(), 3u);

  ItemsetStore store(&db, "paper", GetParam());
  ASSERT_TRUE(store
                  .Save(mined.value().itemsets,
                        MakeRunMeta(mined.value().itemsets,
                                    PaperExampleOptions(),
                                    MaxTransactionId(PaperExampleTransactions())))
                  .ok());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().itemsets == mined.value().itemsets);
  EXPECT_EQ(loaded.value().itemsets.CountOf({3, 4, 5}), 3);  // DEF
}

TEST_P(ItemsetStoreTest, SaveReplacesDeeperPreviousRun) {
  Database db;
  auto deep =
      SetmMiner(&db).Mine(PaperExampleTransactions(), PaperExampleOptions());
  ASSERT_TRUE(deep.ok());
  ItemsetStore store(&db, "fi", GetParam());
  MiningOptions options = PaperExampleOptions();
  ASSERT_TRUE(store
                  .Save(deep.value().itemsets,
                        MakeRunMeta(deep.value().itemsets, options, 600))
                  .ok());
  ASSERT_TRUE(db.catalog()->HasTable(store.LevelTableName(3)));

  // A shallower result must drop the deeper relations of the old run.
  options.max_pattern_length = 1;
  auto shallow = SetmMiner(&db).Mine(PaperExampleTransactions(), options);
  ASSERT_TRUE(shallow.ok());
  ASSERT_TRUE(store
                  .Save(shallow.value().itemsets,
                        MakeRunMeta(shallow.value().itemsets, options, 600))
                  .ok());
  EXPECT_TRUE(db.catalog()->HasTable(store.LevelTableName(1)));
  EXPECT_FALSE(db.catalog()->HasTable(store.LevelTableName(2)));
  EXPECT_FALSE(db.catalog()->HasTable(store.LevelTableName(3)));
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().itemsets == shallow.value().itemsets);
}

TEST_P(ItemsetStoreTest, LoadWithoutSaveIsNotFound) {
  Database db;
  ItemsetStore store(&db, "nothing", GetParam());
  auto loaded = store.Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
  EXPECT_TRUE(store.Drop().ok());  // Drop is idempotent
}

INSTANTIATE_TEST_SUITE_P(Backings, ItemsetStoreTest,
                         testing::Values(TableBacking::kMemory,
                                         TableBacking::kHeap));

// The materialized relations are ordinary catalog tables: the SQL engine
// scans them like any other relation.
TEST(ItemsetStoreSqlTest, MaterializedRelationsAreQueryable) {
  Database db;
  auto mined =
      SetmMiner(&db).Mine(PaperExampleTransactions(), PaperExampleOptions());
  ASSERT_TRUE(mined.ok());
  ItemsetStore store(&db, "fi", TableBacking::kHeap);
  ASSERT_TRUE(store
                  .Save(mined.value().itemsets,
                        MakeRunMeta(mined.value().itemsets,
                                    PaperExampleOptions(), 600, "sales"))
                  .ok());

  sql::SqlEngine engine(&db);
  auto f2 = engine.Execute("SELECT item1, item2, support FROM fi_f2");
  ASSERT_TRUE(f2.ok()) << f2.status().ToString();
  EXPECT_EQ(f2.value().rows.size(), mined.value().itemsets.OfSize(2).size());

  // The paper's DEF itemset (3,4,5) has support 3 at k = 3.
  auto def = engine.Execute(
      "SELECT support FROM fi_f3 WHERE item1 = 3 AND item2 = 4");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  ASSERT_EQ(def.value().rows.size(), 1u);
  EXPECT_EQ(def.value().rows[0].value(0).AsInt64(), 3);

  auto meta = engine.Execute("SELECT num_transactions FROM fi_meta");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_EQ(meta.value().rows.size(), 1u);
}

// --------------------------------------------------------------------------
// Planner appends vs full remine: the equivalence sweep of the acceptance
// criteria — seeds x backings x batch sizes, exact itemsets everywhere.
// --------------------------------------------------------------------------

class DeltaDeriveSweepTest
    : public testing::TestWithParam<
          std::tuple<uint64_t, TableBacking, double>> {};

TEST_P(DeltaDeriveSweepTest, BitIdenticalToFullRemine) {
  const uint64_t seed = std::get<0>(GetParam());
  const TableBacking backing = std::get<1>(GetParam());
  const double batch_fraction = std::get<2>(GetParam());

  const uint32_t base_size = 250;
  TransactionDb base = MakeQuestDb(seed, base_size);
  const uint32_t batch_size = std::max(
      1u, static_cast<uint32_t>(batch_fraction * base_size));
  TransactionDb batch =
      MakeBatch(seed + 1000, batch_size, MaxTransactionId(base));

  MiningOptions options;
  options.min_support = 0.04;

  // Incremental path: mine base and store it, then append.
  Database db;
  auto sales_or = LoadSalesTable(&db, "sales", base, backing);
  ASSERT_TRUE(sales_or.ok());
  const PlannerOptions planner_options = StoreOptions(backing);
  MiningPlanner planner(&db, planner_options);
  ASSERT_TRUE(Request(&planner, sales_or.value(), options).ok());
  auto updated = Request(&planner, sales_or.value(), options, &batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  // Oracle: full remine of the combined database in a fresh engine.
  TransactionDb combined = base;
  combined.insert(combined.end(), batch.begin(), batch.end());
  Database oracle_db;
  auto oracle =
      SetmMiner(&oracle_db, planner_options.setm).Mine(combined, options);
  ASSERT_TRUE(oracle.ok());

  EXPECT_TRUE(updated.value().result.itemsets == oracle.value().itemsets);
  EXPECT_EQ(updated.value().result.itemsets.num_transactions,
            oracle.value().itemsets.num_transactions);

  // Batches within the derivation budget are derived; larger ones are
  // answered by a full mine.
  EXPECT_EQ(updated.value().plan.strategy == PlanStrategy::kDeltaDerive,
            batch_fraction / (1.0 + batch_fraction) <=
                planner_options.full_remine_fraction);

  // The refreshed store must hold exactly the combined result, ready for
  // the next batch.
  auto reloaded = ItemsetStore(&db, "fi", backing).Load();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded.value().itemsets == oracle.value().itemsets);
  EXPECT_EQ(reloaded.value().meta.watermark, MaxTransactionId(batch));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsBackingsBatches, DeltaDeriveSweepTest,
    testing::Combine(testing::Values(uint64_t{101}, uint64_t{202}),
                     testing::Values(TableBacking::kMemory,
                                     TableBacking::kHeap),
                     testing::Values(0.02, 0.10, 0.50)));

// --------------------------------------------------------------------------
// Delta-derive specifics.
// --------------------------------------------------------------------------

TEST(DeltaDeriveTest, SequentialBatchesStayExact) {
  TransactionDb base = MakeQuestDb(303, 200);
  MiningOptions options;
  options.min_support = 0.04;

  Database db;
  auto sales_or = LoadSalesTable(&db, "sales", base, TableBacking::kMemory);
  ASSERT_TRUE(sales_or.ok());
  MiningPlanner planner(&db, StoreOptions(TableBacking::kMemory));
  ASSERT_TRUE(Request(&planner, sales_or.value(), options).ok());

  TransactionDb combined = base;
  for (int round = 0; round < 3; ++round) {
    TransactionDb batch = MakeBatch(9000 + round, 20,
                                    MaxTransactionId(combined));
    auto updated = Request(&planner, sales_or.value(), options, &batch);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated.value().plan.strategy, PlanStrategy::kDeltaDerive);

    combined.insert(combined.end(), batch.begin(), batch.end());
    Database oracle_db;
    auto oracle = SetmMiner(&oracle_db).Mine(combined, options);
    ASSERT_TRUE(oracle.ok());
    EXPECT_TRUE(updated.value().result.itemsets == oracle.value().itemsets)
        << "diverged at round " << round;
  }
}

TEST(DeltaDeriveTest, BorderlinePromotionIsExact) {
  // Items 1,2 co-occur once in the base; the batch adds two more
  // co-occurrences so {1,2} crosses an absolute threshold of 3 — frequent
  // in the combined database yet absent from the store: the borderline
  // re-count path must find it with its exact support.
  TransactionDb base;
  base.push_back({1, {1, 2}});
  for (TransactionId tid = 2; tid <= 10; ++tid) {
    base.push_back({tid, {1, 3}});
  }
  MiningOptions options;
  options.min_support_count = 3;

  Database db;
  auto sales_or = LoadSalesTable(&db, "sales", base, TableBacking::kMemory);
  ASSERT_TRUE(sales_or.ok());
  PlannerOptions planner_options = StoreOptions(TableBacking::kMemory);
  planner_options.full_remine_fraction = 0.5;  // keep the delta path
  MiningPlanner planner(&db, planner_options);
  auto base_mined = Request(&planner, sales_or.value(), options);
  ASSERT_TRUE(base_mined.ok());
  EXPECT_EQ(base_mined.value().result.itemsets.CountOf({1, 2}), 0);

  TransactionDb batch;
  batch.push_back({11, {1, 2}});
  batch.push_back({12, {1, 2}});
  auto updated = Request(&planner, sales_or.value(), options, &batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated.value().plan.strategy, PlanStrategy::kDeltaDerive);
  EXPECT_GE(updated.value().borderline_candidates, 1u);
  EXPECT_EQ(updated.value().result.itemsets.CountOf({1, 2}), 3);
}

// SALES loaded with its transactions in descending trans_id order reaches
// the intake's sort fallback on every scan: the store's mine, the old
// partition's count and the remine all sort. The derive stays
// bit-identical to the oracle and to a full remine.
TEST(DeltaDeriveTest, DescendingSalesDerivesLikeAFullRemine) {
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    SCOPED_TRACE(backing == TableBacking::kHeap ? "heap" : "memory");
    const TransactionDb base = MakeQuestDb(404, 250);
    const TransactionDb descending(base.rbegin(), base.rend());
    MiningOptions options;
    options.min_support = 0.04;
    Database db;
    auto sales = LoadSalesTable(&db, "sales", descending, backing);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    const PlannerOptions planner_options = StoreOptions(backing);
    MiningPlanner planner(&db, planner_options);
    ASSERT_TRUE(Request(&planner, sales.value(), options).ok());

    const TransactionDb batch = MakeBatch(405, 20, MaxTransactionId(base));
    auto updated = Request(&planner, sales.value(), options, &batch);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated.value().plan.strategy, PlanStrategy::kDeltaDerive);
    EXPECT_GT(updated.value().borderline_candidates, 0u);

    TransactionDb combined = base;
    combined.insert(combined.end(), batch.begin(), batch.end());
    auto oracle = BruteForceMiner().Mine(combined, options);
    ASSERT_TRUE(oracle.ok());
    auto remine = SetmMiner(&db, planner_options.setm)
                      .MineTable(*sales.value(), options);
    ASSERT_TRUE(remine.ok()) << remine.status().ToString();
    const FrequentItemsets& derived = updated.value().result.itemsets;
    EXPECT_TRUE(derived == oracle.value().itemsets);
    EXPECT_TRUE(derived == remine.value().itemsets);
  }
}

TEST(DeltaDeriveTest, RepeatedSalesRowsMatchAFullRemine) {
  // SETM counts a repeated SALES row once per row
  // (SetmOnePassTest.RepeatedSalesRowsNeverRepeatAnItem): item 7 twice in
  // transactions 1 and 2 counts 4 for {7} and for {1,7}. The derive's
  // counts over the delta and the old partition must be the same counts.
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    SCOPED_TRACE(backing == TableBacking::kHeap ? "heap" : "memory");
    Database db;
    auto sales = db.catalog()->CreateTable("sales", SetmMiner::SalesSchema(),
                                           backing);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    const auto insert = [&](int32_t tid, int32_t item) {
      const Tuple row({Value::Int32(tid), Value::Int32(item)});
      ASSERT_TRUE(sales.value()->Insert(row).ok());
    };
    for (int32_t tid = 1; tid <= 10; ++tid) insert(tid, 1);
    for (int32_t tid : {1, 1, 2, 2}) insert(tid, 7);
    MiningOptions options;
    options.min_support_count = 5;
    const PlannerOptions planner_options = StoreOptions(backing);
    MiningPlanner planner(&db, planner_options);
    auto stored = Request(&planner, sales.value(), options);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ASSERT_EQ(stored.value().result.itemsets.TotalPatterns(), 1u);

    TransactionDb batch;
    batch.push_back({11, {1, 7}});
    batch.push_back({12, {7}});
    auto updated = Request(&planner, sales.value(), options, &batch);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated.value().plan.strategy, PlanStrategy::kDeltaDerive);
    EXPECT_EQ(updated.value().borderline_candidates, 2u);

    // Oracle: a full remine of the combined SALES.
    auto remine = SetmMiner(&db, planner_options.setm)
                      .MineTable(*sales.value(), options);
    ASSERT_TRUE(remine.ok()) << remine.status().ToString();
    const FrequentItemsets& derived = updated.value().result.itemsets;
    EXPECT_EQ(derived.TotalPatterns(), 3u);
    EXPECT_EQ(derived.CountOf({1}), 11);
    EXPECT_EQ(derived.CountOf({7}), 6);
    EXPECT_EQ(derived.CountOf({1, 7}), 5);
    EXPECT_TRUE(derived == remine.value().itemsets);
  }
}

TEST(DeltaDeriveTest, ParallelDeltaMineMatchesSerial) {
  TransactionDb base = MakeQuestDb(404, 240);
  TransactionDb batch = MakeBatch(405, 24, MaxTransactionId(base));
  MiningOptions options;
  options.min_support = 0.04;

  MiningResult serial_result, parallel_result;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    Database db;
    auto sales_or = LoadSalesTable(&db, "sales", base, TableBacking::kMemory);
    ASSERT_TRUE(sales_or.ok());
    PlannerOptions planner_options = StoreOptions(TableBacking::kMemory);
    planner_options.setm.num_threads = threads;
    MiningPlanner planner(&db, planner_options);
    ASSERT_TRUE(Request(&planner, sales_or.value(), options).ok());
    auto updated = Request(&planner, sales_or.value(), options, &batch);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated.value().plan.strategy, PlanStrategy::kDeltaDerive);
    (threads == 1 ? serial_result : parallel_result) =
        std::move(updated.value().result);
  }
  EXPECT_TRUE(serial_result.itemsets == parallel_result.itemsets);
}

TEST(DeltaDeriveTest, SpecMismatchForcesFullMine) {
  TransactionDb base = MakeQuestDb(606, 150);
  MiningOptions options;
  options.min_support = 0.05;

  Database db;
  auto sales_or = LoadSalesTable(&db, "sales", base, TableBacking::kMemory);
  ASSERT_TRUE(sales_or.ok());
  MiningPlanner planner(&db, StoreOptions(TableBacking::kMemory));
  ASSERT_TRUE(Request(&planner, sales_or.value(), options).ok());

  // Asking a different question (lower threshold) cannot reuse the stored
  // counts; the append must be answered by a full mine and still be exact.
  MiningOptions changed = options;
  changed.min_support = 0.02;
  TransactionDb batch = MakeBatch(607, 10, MaxTransactionId(base));
  auto updated = Request(&planner, sales_or.value(), changed, &batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated.value().plan.strategy, PlanStrategy::kFullMine);

  TransactionDb combined = base;
  combined.insert(combined.end(), batch.begin(), batch.end());
  Database oracle_db;
  auto oracle = SetmMiner(&oracle_db).Mine(combined, changed);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(updated.value().result.itemsets == oracle.value().itemsets);
}

TEST(DeltaDeriveTest, EmptyBatchIsANoOpUpdate) {
  TransactionDb base = MakeQuestDb(707, 120);
  MiningOptions options;
  options.min_support = 0.05;

  Database db;
  auto sales_or = LoadSalesTable(&db, "sales", base, TableBacking::kMemory);
  ASSERT_TRUE(sales_or.ok());
  MiningPlanner planner(&db, StoreOptions(TableBacking::kMemory));
  auto mined = Request(&planner, sales_or.value(), options);
  ASSERT_TRUE(mined.ok());
  const uint64_t rows = sales_or.value()->num_rows();

  // Nothing to derive: the fresh store answers the question as it stands.
  const TransactionDb empty;
  auto updated = Request(&planner, sales_or.value(), options, &empty);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated.value().plan.strategy, PlanStrategy::kCacheFilter);
  EXPECT_EQ(updated.value().delta_transactions, 0u);
  EXPECT_EQ(sales_or.value()->num_rows(), rows);
  EXPECT_TRUE(updated.value().result.itemsets ==
              mined.value().result.itemsets);
}

}  // namespace
}  // namespace setm
