// The plan/execute layer: MiningPlanner strategy selection across the
// decision matrix (cold, dominated, stale-within-budget, stale-over-budget,
// malformed batches, crash-interrupted appends), bit-identity of the answer
// regardless of the chosen strategy, the PlanStats ledger, the
// zero-iteration guarantee of cache-filter plans — all over both
// TableBackings — and the page budget of a derived append.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/mining_planner.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "incremental/itemset_store.h"

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
                        TransactionId start_after) {
  TransactionDb batch = MakeQuestDb(seed, count);
  for (Transaction& t : batch) t.id += start_after;
  return batch;
}

/// Counts observer callbacks; the cache-filter zero-iteration proof.
class CountingObserver : public MiningObserver {
 public:
  bool OnIteration(const IterationStats&) override {
    ++iterations;
    return true;
  }
  int iterations = 0;
};

/// The oracle: a plain full mine of `txns` at `options`, independent of any
/// planner or store state.
FrequentItemsets Oracle(const TransactionDb& txns,
                        const MiningOptions& options) {
  Database db;
  auto mined = SetmMiner(&db).Mine(txns, options);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  return std::move(mined).value().itemsets;
}

class PlannerTest : public testing::TestWithParam<TableBacking> {
 protected:
  PlannerOptions Options() const {
    PlannerOptions options;
    options.store_prefix = "fi";
    options.store_backing = GetParam();
    options.setm.storage = GetParam();
    return options;
  }

  /// Materializes SALES and returns (planner-ready) request pieces.
  Table* MakeSales(Database* db, const TransactionDb& txns) {
    auto sales_or = LoadSalesTable(db, "sales", txns, GetParam());
    EXPECT_TRUE(sales_or.ok()) << sales_or.status().ToString();
    return sales_or.value();
  }
};

// --------------------------------------------------------------------------
// Strategy selection.
// --------------------------------------------------------------------------

TEST_P(PlannerTest, ColdQueryFullMinesAndWritesBack) {
  TransactionDb txns = MakeQuestDb(11, 150);
  Database db;
  Table* sales = MakeSales(&db, txns);
  MiningPlanner planner(&db, Options());

  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 4;
  auto exec = planner.Execute(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec.value().plan.strategy, PlanStrategy::kFullMine);
  EXPECT_TRUE(exec.value().plan.save_after_mine);
  EXPECT_TRUE(planner.store()->LoadMeta().ok());
  EXPECT_EQ(planner.stats().plans, 1u);
  EXPECT_EQ(planner.stats().full_mines, 1u);
  EXPECT_EQ(planner.stats().write_backs, 1u);
  EXPECT_TRUE(exec.value().result.itemsets == Oracle(txns, request.options));
}

TEST_P(PlannerTest, DominatedQueryIsServedByCacheFilterWithZeroIterations) {
  TransactionDb txns = MakeQuestDb(12, 150);
  Database db;
  Table* sales = MakeSales(&db, txns);
  MiningPlanner planner(&db, Options());

  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 3;
  ASSERT_TRUE(planner.Execute(request).ok());

  CountingObserver observer;
  request.options.min_support_count = 6;
  request.options.observer = &observer;
  auto exec = planner.Execute(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec.value().plan.strategy, PlanStrategy::kCacheFilter);
  // The zero-mining guarantee, observed from the outside: no iterations ran
  // and none were reported.
  EXPECT_TRUE(exec.value().result.iterations.empty());
  EXPECT_EQ(observer.iterations, 0);
  EXPECT_EQ(planner.stats().cache_filters, 1u);

  request.options.observer = nullptr;
  EXPECT_TRUE(exec.value().result.itemsets == Oracle(txns, request.options));
}

TEST_P(PlannerTest, LowerSupportQueryInvalidatesAndRemines) {
  TransactionDb txns = MakeQuestDb(13, 150);
  Database db;
  Table* sales = MakeSales(&db, txns);
  MiningPlanner planner(&db, Options());

  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 6;
  ASSERT_TRUE(planner.Execute(request).ok());

  // Support 3 < stored 6: the store cannot answer (anti-monotonicity only
  // helps upward), so the run is dropped and remined at the new threshold.
  request.options.min_support_count = 3;
  auto exec = planner.Execute(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec.value().plan.strategy, PlanStrategy::kFullMine);
  EXPECT_EQ(planner.stats().invalidations, 1u);
  EXPECT_EQ(planner.stats().full_mines, 2u);
  EXPECT_TRUE(exec.value().result.itemsets == Oracle(txns, request.options));

  // The write-back re-keyed the store at support 3: the old query is now a
  // cache hit again.
  request.options.min_support_count = 6;
  auto again = planner.Execute(request);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().plan.strategy, PlanStrategy::kCacheFilter);
}

TEST_P(PlannerTest, SmallAppendIsDeltaDerivedExactly) {
  TransactionDb base = MakeQuestDb(14, 200);
  TransactionDb delta = MakeBatch(15, 20, MaxTransactionId(base));
  Database db;
  Table* sales = MakeSales(&db, base);
  MiningPlanner planner(&db, Options());

  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 5;
  ASSERT_TRUE(planner.Execute(request).ok());

  request.append = &delta;
  auto exec = planner.Execute(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec.value().plan.strategy, PlanStrategy::kDeltaDerive);
  EXPECT_EQ(exec.value().delta_transactions, delta.size());
  EXPECT_EQ(planner.stats().delta_derives, 1u);

  TransactionDb combined = base;
  combined.insert(combined.end(), delta.begin(), delta.end());
  EXPECT_TRUE(exec.value().result.itemsets ==
              Oracle(combined, request.options));

  // The derivation refreshed the store: a dominated re-query of the
  // combined database is a cache hit.
  request.append = nullptr;
  request.options.min_support_count = 8;
  auto requery = planner.Execute(request);
  ASSERT_TRUE(requery.ok());
  EXPECT_EQ(requery.value().plan.strategy, PlanStrategy::kCacheFilter);
  EXPECT_TRUE(requery.value().result.itemsets ==
              Oracle(combined, request.options));
}

TEST_P(PlannerTest, OversizedAppendFallsBackToFullMine) {
  TransactionDb base = MakeQuestDb(16, 100);
  TransactionDb delta = MakeBatch(17, 80, MaxTransactionId(base));
  Database db;
  Table* sales = MakeSales(&db, base);
  PlannerOptions options = Options();
  options.full_remine_fraction = 0.10;  // 80/180 is far above 10%
  MiningPlanner planner(&db, options);

  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 5;
  ASSERT_TRUE(planner.Execute(request).ok());

  request.append = &delta;
  auto exec = planner.Execute(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec.value().plan.strategy, PlanStrategy::kFullMine);
  EXPECT_EQ(planner.stats().delta_derives, 0u);

  TransactionDb combined = base;
  combined.insert(combined.end(), delta.begin(), delta.end());
  EXPECT_TRUE(exec.value().result.itemsets ==
              Oracle(combined, request.options));
}

TEST_P(PlannerTest, InMemorySourceNeverCaches) {
  TransactionDb txns = MakeQuestDb(18, 100);
  Database db;
  MiningPlanner planner(&db, Options());

  PlanRequest request;
  request.transactions = &txns;
  request.options.min_support_count = 4;
  auto exec = planner.Execute(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec.value().plan.strategy, PlanStrategy::kFullMine);
  EXPECT_FALSE(exec.value().plan.save_after_mine);
  // Nothing keyed on a relation, nothing stored.
  EXPECT_EQ(planner.store()->LoadMeta().status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(exec.value().result.itemsets == Oracle(txns, request.options));
}

// --------------------------------------------------------------------------
// Plan() is pure inspection.
// --------------------------------------------------------------------------

TEST_P(PlannerTest, PlanInspectsWithoutMiningOrMutating) {
  TransactionDb txns = MakeQuestDb(19, 100);
  Database db;
  Table* sales = MakeSales(&db, txns);
  MiningPlanner planner(&db, Options());

  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 4;
  auto plan = planner.Plan(request);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().strategy, PlanStrategy::kFullMine);
  EXPECT_FALSE(plan.value().reason.empty());
  EXPECT_FALSE(plan.value().Explain().empty());
  // Planned but not executed: no store was written, no strategy charged.
  EXPECT_EQ(planner.store()->LoadMeta().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(planner.stats().plans, 1u);
  EXPECT_EQ(planner.stats().full_mines, 0u);
  EXPECT_EQ(planner.stats().write_backs, 0u);

  ASSERT_TRUE(planner.Execute(request).ok());
  auto dominated = planner.Plan(request);
  ASSERT_TRUE(dominated.ok());
  EXPECT_EQ(dominated.value().strategy, PlanStrategy::kCacheFilter);
  EXPECT_TRUE(dominated.value().store_found);
  EXPECT_EQ(planner.stats().cache_filters, 0u);  // still only inspected
}

// --------------------------------------------------------------------------
// Malformed requests.
// --------------------------------------------------------------------------

TEST_P(PlannerTest, BatchAtOrBelowWatermarkIsRejected) {
  TransactionDb base = MakeQuestDb(20, 100);
  Database db;
  Table* sales = MakeSales(&db, base);
  MiningPlanner planner(&db, Options());

  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 4;
  ASSERT_TRUE(planner.Execute(request).ok());

  // Re-submitting already-applied ids must fail loudly, not double-count:
  // the whole base, and a lone transaction exactly at the watermark.
  TransactionDb at_watermark;
  at_watermark.push_back({MaxTransactionId(base), {1, 2}});
  for (const TransactionDb* batch : {&base, &at_watermark}) {
    request.append = batch;
    auto exec = planner.Execute(request);
    ASSERT_FALSE(exec.ok());
    EXPECT_EQ(exec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(
        exec.status().message().find("at or below the stored watermark"),
        std::string::npos)
        << exec.status().ToString();
  }
}

TEST_P(PlannerTest, DuplicateBatchIdsAreRejected) {
  TransactionDb base = MakeQuestDb(21, 100);
  // A repeated transaction, and one id carrying two different baskets.
  TransactionDb repeated = MakeBatch(22, 10, MaxTransactionId(base));
  repeated.push_back(repeated.front());
  TransactionDb reused;
  reused.push_back({MaxTransactionId(base) + 1, {1, 2}});
  reused.push_back({MaxTransactionId(base) + 1, {2, 3}});
  Database db;
  Table* sales = MakeSales(&db, base);
  MiningPlanner planner(&db, Options());

  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 4;
  ASSERT_TRUE(planner.Execute(request).ok());

  for (const TransactionDb* batch : {&repeated, &reused}) {
    request.append = batch;
    auto exec = planner.Execute(request);
    ASSERT_FALSE(exec.ok());
    EXPECT_EQ(exec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(exec.status().message().find("duplicate delta transaction id"),
              std::string::npos)
        << exec.status().ToString();
  }
}

// --------------------------------------------------------------------------
// Crash-interrupted appends: the batch's rows committed to SALES, but the
// store was never refreshed. One rule holds under every strategy: the same
// batch completes, any other batch is refused.
// --------------------------------------------------------------------------

/// Leaves `batch` in SALES as a crash after the append's commit would:
/// rows inserted and committed, store untouched.
void AppendWithoutRefresh(Database* db, Table* sales,
                          const TransactionDb& batch) {
  for (const Transaction& t : batch) {
    for (ItemId item : t.items) {
      ASSERT_TRUE(
          sales->Insert(Tuple({Value::Int32(t.id), Value::Int32(item)})).ok());
    }
  }
  ASSERT_TRUE(db->Commit().ok());
}

uint64_t RowCount(const TransactionDb& txns) {
  uint64_t rows = 0;
  for (const Transaction& t : txns) rows += t.items.size();
  return rows;
}

TEST_P(PlannerTest, InterruptedAppendIsCompletedByRetryUnderEveryBudget) {
  TransactionDb base = MakeQuestDb(26, 200);
  TransactionDb batch = MakeBatch(27, 10, MaxTransactionId(base));
  TransactionDb combined = base;
  combined.insert(combined.end(), batch.begin(), batch.end());

  for (double budget : {0.25, 0.0}) {
    SCOPED_TRACE(testing::Message() << "budget " << budget);
    Database db;
    Table* sales = MakeSales(&db, base);
    PlannerOptions options = Options();
    options.full_remine_fraction = budget;
    MiningPlanner planner(&db, options);

    PlanRequest request;
    request.table = sales;
    request.options.min_support_count = 5;
    ASSERT_TRUE(planner.Execute(request).ok());
    AppendWithoutRefresh(&db, sales, batch);

    request.append = &batch;
    auto exec = planner.Execute(request);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec.value().plan.strategy, budget > 0.0
                                              ? PlanStrategy::kDeltaDerive
                                              : PlanStrategy::kFullMine);
    EXPECT_FALSE(exec.value().plan.orphans.empty());
    // The derive counts borderline itemsets over the old partition while
    // the orphans sit beyond the watermark: they must stay out of it.
    if (budget > 0.0) {
      EXPECT_GE(exec.value().borderline_candidates, 1u);
    }
    EXPECT_TRUE(exec.value().result.itemsets ==
                Oracle(combined, request.options));
    // The orphans were skipped, not inserted twice.
    EXPECT_EQ(sales->num_rows(), RowCount(combined));

    // The store now covers the batch: the same question is a cache hit.
    request.append = nullptr;
    auto requery = planner.Execute(request);
    ASSERT_TRUE(requery.ok()) << requery.status().ToString();
    EXPECT_EQ(requery.value().plan.strategy, PlanStrategy::kCacheFilter);
  }
}

TEST_P(PlannerTest, InterruptedAppendRefusesADifferentBatchUnderEveryBudget) {
  TransactionDb base = MakeQuestDb(28, 200);
  TransactionDb interrupted = MakeBatch(29, 10, MaxTransactionId(base));
  TransactionDb other = MakeBatch(30, 10, MaxTransactionId(base) + 100);

  for (double budget : {0.25, 0.0}) {
    SCOPED_TRACE(testing::Message() << "budget " << budget);
    Database db;
    Table* sales = MakeSales(&db, base);
    PlannerOptions options = Options();
    options.full_remine_fraction = budget;
    MiningPlanner planner(&db, options);

    PlanRequest request;
    request.table = sales;
    request.options.min_support_count = 5;
    ASSERT_TRUE(planner.Execute(request).ok());
    AppendWithoutRefresh(&db, sales, interrupted);
    const uint64_t rows = sales->num_rows();

    // Refused before any strategy is chosen, so EXPLAIN reports it too.
    request.append = &other;
    auto plan = planner.Plan(request);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    auto exec = planner.Execute(request);
    ASSERT_FALSE(exec.ok());
    EXPECT_EQ(exec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(exec.status().message().find("crash-interrupted append"),
              std::string::npos)
        << exec.status().ToString();
    EXPECT_EQ(sales->num_rows(), rows);
  }
}

/// The child of `span` named `name`, or null.
const obs::TraceSpan* ChildNamed(const obs::TraceSpan& span,
                                 const std::string& name) {
  for (const auto& child : span.children()) {
    if (child->name() == name) return child.get();
  }
  return nullptr;
}

// The derive's count over the old partition is its own span under
// "derive", with one span per iteration, and it exists exactly when
// something is borderline (the count is skipped otherwise).
TEST_P(PlannerTest, OldPartitionCountIsTracedExactlyWhenBorderline) {
  TransactionDb base = MakeQuestDb(32, 200);
  Database db;
  Table* sales = MakeSales(&db, base);
  MiningPlanner planner(&db, Options());
  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 5;
  auto stored = planner.Execute(request);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ASSERT_FALSE(stored.value().result.itemsets.OfSize(1).empty());

  // A Quest batch has itemsets the store lacks; one-item baskets of a
  // stored item have none.
  TransactionDb quest = MakeBatch(33, 20, MaxTransactionId(base));
  const ItemId item = stored.value().result.itemsets.OfSize(1)[0].items[0];
  TransactionDb singles;
  for (TransactionId i = 1; i <= 5; ++i) {
    singles.push_back({MaxTransactionId(quest) + i, {item}});
  }
  for (TransactionDb* batch : {&quest, &singles}) {
    obs::TraceSpan root("request", db.io_stats());
    request.append = batch;
    request.trace = &root;
    auto exec = planner.Execute(request);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    root.End();
    ASSERT_EQ(exec.value().plan.strategy, PlanStrategy::kDeltaDerive);
    const uint64_t borderline = exec.value().borderline_candidates;
    EXPECT_EQ(borderline > 0, batch == &quest);
    const obs::TraceSpan* derive = ChildNamed(root, "derive");
    ASSERT_NE(derive, nullptr) << root.Render();
    const obs::TraceSpan* old_partition = ChildNamed(*derive, "old partition");
    EXPECT_EQ(old_partition != nullptr, borderline > 0) << root.Render();
    if (old_partition == nullptr) continue;
    EXPECT_TRUE(old_partition->ended());
    // The intake's counts: every SALES row read, and only those up to the
    // watermark of the lattice's items kept.
    std::map<std::string, uint64_t> counts(old_partition->counts().begin(),
                                           old_partition->counts().end());
    EXPECT_EQ(counts.count("sales_rows"), 1u) << root.Render();
    EXPECT_GT(counts["kept_rows"], 0u) << root.Render();
    EXPECT_LT(counts["kept_rows"], counts["sales_rows"]) << root.Render();
    EXPECT_LE(old_partition->page_reads(), derive->page_reads());
    ASSERT_FALSE(old_partition->children().empty()) << root.Render();
    for (const auto& iteration : old_partition->children()) {
      EXPECT_EQ(iteration->name().rfind("iteration k=", 0), 0u)
          << iteration->name();
    }
  }
}

// A threaded derive cuts its old-partition count into one shard per
// thread: the intake's share is the old partition's rows (the store's
// source_rows), not the table's, which also holds the rows past the
// watermark that the derive folds in.
TEST_P(PlannerTest, ThreadedOldPartitionCountHasAShardPerThread) {
  TransactionDb base = MakeQuestDb(34, 300);
  Database db;
  Table* sales = MakeSales(&db, base);
  PlannerOptions options = Options();
  options.setm.num_threads = 4;
  options.full_remine_fraction = 1.0;
  MiningPlanner planner(&db, options);
  PlanRequest request;
  request.table = sales;
  request.options.min_support_count = 5;
  ASSERT_TRUE(planner.Execute(request).ok());

  // Rows past the watermark without a store refresh: the derive's delta,
  // 40% of the combined database, so the table holds 5/3 of the old rows.
  TransactionDb tail = MakeBatch(35, 200, MaxTransactionId(base));
  AppendWithoutRefresh(&db, sales, tail);
  obs::TraceSpan root("request", db.io_stats());
  request.trace = &root;
  auto exec = planner.Execute(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  root.End();
  ASSERT_EQ(exec.value().plan.strategy, PlanStrategy::kDeltaDerive);
  ASSERT_GT(exec.value().borderline_candidates, 0u);
  TransactionDb combined = base;
  combined.insert(combined.end(), tail.begin(), tail.end());
  EXPECT_TRUE(exec.value().result.itemsets ==
              Oracle(combined, request.options));

  const obs::TraceSpan* derive = ChildNamed(root, "derive");
  ASSERT_NE(derive, nullptr) << root.Render();
  const obs::TraceSpan* old_partition = ChildNamed(*derive, "old partition");
  ASSERT_NE(old_partition, nullptr) << root.Render();
  ASSERT_FALSE(old_partition->children().empty()) << root.Render();
  for (const auto& iteration : old_partition->children()) {
    size_t shards = 0;
    for (const auto& child : iteration->children()) {
      if (child->name().rfind("shard ", 0) == 0) ++shards;
    }
    EXPECT_EQ(shards, 4u) << iteration->name() << "\n" << root.Render();
  }
}

TEST_P(PlannerTest, RequestsNeedExactlyOneSource) {
  TransactionDb txns = MakeQuestDb(23, 10);
  Database db;
  Table* sales = MakeSales(&db, txns);
  MiningPlanner planner(&db, Options());

  PlanRequest none;
  EXPECT_EQ(planner.Execute(none).status().code(),
            StatusCode::kInvalidArgument);

  PlanRequest both;
  both.table = sales;
  both.transactions = &txns;
  EXPECT_EQ(planner.Execute(both).status().code(),
            StatusCode::kInvalidArgument);

  PlanRequest mem_append;
  mem_append.transactions = &txns;
  mem_append.append = &txns;
  EXPECT_EQ(planner.Execute(mem_append).status().code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Backings, PlannerTest,
                         testing::Values(TableBacking::kMemory,
                                         TableBacking::kHeap));

// --------------------------------------------------------------------------
// Page budget of the derive path.
// --------------------------------------------------------------------------

// On the derive path SALES is scanned only by the borderline recount, and
// only when there are candidates. An append whose delta-frequent itemsets
// are all stored therefore reads fewer pages than SALES holds, even when
// SALES is much larger than the pool.
TEST(PlannerPagesTest, ZeroBorderlineAppendReadsFewerPagesThanSales) {
  QuestOptions gen;
  gen.seed = 31;
  gen.num_transactions = 3000;
  gen.avg_transaction_size = 10;
  gen.num_items = 400;
  gen.num_patterns = 60;
  const TransactionDb base = QuestGenerator(gen).Generate();

  DatabaseOptions db_options;
  db_options.pool_frames = 16;
  Database db(db_options);
  auto sales_or = LoadSalesTable(&db, "sales", base, TableBacking::kHeap);
  ASSERT_TRUE(sales_or.ok()) << sales_or.status().ToString();
  Table* sales = sales_or.value();
  ASSERT_GT(sales->num_pages(), 4 * db_options.pool_frames);

  PlannerOptions options;
  options.store_prefix = "fi";
  options.store_backing = TableBacking::kHeap;
  MiningPlanner planner(&db, options);
  PlanRequest request;
  request.table = sales;
  request.options.min_support = 0.02;
  request.options.max_pattern_length = 2;  // keeps the mines cheap
  auto mined = planner.Execute(request);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_FALSE(mined.value().result.itemsets.OfSize(1).empty());

  // Twenty one-item baskets of a stored frequent item: the only
  // delta-frequent itemset is already stored, so nothing is borderline.
  const ItemId item = mined.value().result.itemsets.OfSize(1).front().items[0];
  TransactionDb batch;
  for (TransactionId i = 1; i <= 20; ++i) {
    batch.push_back({MaxTransactionId(base) + i, {item}});
  }
  request.append = &batch;
  auto exec = planner.Execute(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_EQ(exec.value().plan.strategy, PlanStrategy::kDeltaDerive);
  EXPECT_EQ(exec.value().borderline_candidates, 0u);
  EXPECT_LT(exec.value().result.io.page_reads, sales->num_pages());

  TransactionDb combined = base;
  combined.insert(combined.end(), batch.begin(), batch.end());
  EXPECT_TRUE(exec.value().result.itemsets ==
              Oracle(combined, request.options));
}

// --------------------------------------------------------------------------
// Prefix-less planner: the pure dispatch path.
// --------------------------------------------------------------------------

TEST(PlannerNoStoreTest, EmptyPrefixDisablesCaching) {
  TransactionDb txns = MakeQuestDb(24, 100);
  Database db;
  PlannerOptions options;  // no store_prefix
  MiningPlanner planner(&db, options);

  PlanRequest request;
  request.transactions = &txns;
  request.options.min_support_count = 4;
  auto exec = planner.Execute(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec.value().plan.strategy, PlanStrategy::kFullMine);
  EXPECT_EQ(planner.store(), nullptr);
  EXPECT_TRUE(exec.value().result.itemsets == Oracle(txns, request.options));
}

TEST(PlannerNoStoreTest, RegistryAlgorithmsRouteThroughTheSamePlanner) {
  TransactionDb txns = MakeQuestDb(25, 100);
  MiningOptions mining;
  mining.min_support_count = 4;
  FrequentItemsets reference = Oracle(txns, mining);

  for (const char* algo : {"apriori", "setm-sql"}) {
    Database db;
    PlannerOptions options;
    options.algorithm = algo;
    MiningPlanner planner(&db, options);
    PlanRequest request;
    request.transactions = &txns;
    request.options = mining;
    auto exec = planner.Execute(request);
    ASSERT_TRUE(exec.ok()) << algo << ": " << exec.status().ToString();
    EXPECT_TRUE(exec.value().result.itemsets == reference) << algo;
  }
}

}  // namespace
}  // namespace setm
