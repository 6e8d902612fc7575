// Cross-miner integration tests, driven entirely through the MinerRegistry:
// every registered algorithm (the six built-ins, plus anything a future
// PR registers) must find exactly the same frequent itemsets as the
// brute-force oracle, across table backings, thread counts, count methods
// and both MiningRequest sources. No miner is constructed by hand here —
// registering an algorithm is what opts it into this suite.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/miner_registry.h"
#include "core/paper_example.h"
#include "core/rules.h"
#include "core/setm.h"
#include "core/setm_sql.h"
#include "datagen/quest_generator.h"
#include "sql/engine.h"

namespace setm {
namespace {

Result<MiningResult> MineVia(const std::string& algo, Database* db,
                             const TransactionDb* txns, const Table* table,
                             const MiningOptions& options,
                             const SetmOptions& knobs = {}) {
  auto miner = MinerRegistry::Create(algo, db, knobs);
  if (!miner.ok()) return miner.status();
  MiningRequest request;
  request.transactions = txns;
  request.table = table;
  request.options = options;
  return miner.value()->Mine(request);
}

/// The physical configurations worth sweeping for one algorithm, derived
/// from its registry metadata — the knob axes it actually honors.
std::vector<SetmOptions> KnobSweep(const MinerInfo& info) {
  std::vector<TableBacking> backings = {TableBacking::kMemory};
  if (info.honors_storage) backings.push_back(TableBacking::kHeap);
  std::vector<size_t> threads = {1};
  if (info.honors_threads) threads.push_back(3);
  std::vector<CountMethod> methods = {CountMethod::kSortMerge};
  if (info.honors_count_method) methods.push_back(CountMethod::kHash);

  std::vector<SetmOptions> sweep;
  for (TableBacking backing : backings) {
    for (size_t t : threads) {
      for (CountMethod method : methods) {
        SetmOptions knobs;
        knobs.storage = backing;
        knobs.num_threads = t;
        knobs.count_method = method;
        sweep.push_back(knobs);
      }
    }
  }
  return sweep;
}

std::string KnobLabel(const SetmOptions& knobs) {
  std::string label = knobs.storage == TableBacking::kHeap ? "heap" : "memory";
  label += knobs.count_method == CountMethod::kHash ? "/hash" : "/sort-merge";
  label += "/threads=" + std::to_string(knobs.num_threads);
  return label;
}

struct Case {
  uint64_t seed;
  double min_support;
  uint32_t num_transactions;
  double avg_size;
  uint32_t num_items;
};

class AllMinersTest : public testing::TestWithParam<Case> {
 protected:
  TransactionDb MakeDb() const {
    QuestOptions gen;
    gen.seed = GetParam().seed;
    gen.num_transactions = GetParam().num_transactions;
    gen.avg_transaction_size = GetParam().avg_size;
    gen.num_items = GetParam().num_items;
    gen.num_patterns = 15;
    return QuestGenerator(gen).Generate();
  }
  MiningOptions Options() const {
    MiningOptions options;
    options.min_support = GetParam().min_support;
    return options;
  }
};

// Every registered algorithm, under every knob combination its metadata
// claims to honor, must reproduce the oracle bit-for-bit.
TEST_P(AllMinersTest, EveryRegisteredMinerMatchesOracle) {
  TransactionDb txns = MakeDb();
  Database oracle_db;
  auto expected =
      MineVia("brute-force", &oracle_db, &txns, nullptr, Options());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (const MinerInfo& info : MinerRegistry::List()) {
    for (const SetmOptions& knobs : KnobSweep(info)) {
      Database db;
      auto result = MineVia(info.name, &db, &txns, nullptr, Options(), knobs);
      ASSERT_TRUE(result.ok())
          << info.name << " [" << KnobLabel(knobs)
          << "]: " << result.status().ToString();
      EXPECT_TRUE(result.value().itemsets == expected.value().itemsets)
          << info.name << " [" << KnobLabel(knobs)
          << "] diverges from the oracle: "
          << result.value().itemsets.TotalPatterns() << " vs "
          << expected.value().itemsets.TotalPatterns() << " patterns";
      EXPECT_EQ(result.value().itemsets.num_transactions, txns.size())
          << info.name << " [" << KnobLabel(knobs) << "]";
    }
  }
}

// The MiningRequest::table source must be equivalent to the transactions
// source for every algorithm — the baselines' MineTable path included.
TEST_P(AllMinersTest, TableSourceMatchesTransactionsSource) {
  TransactionDb txns = MakeDb();
  for (const MinerInfo& info : MinerRegistry::List()) {
    Database txn_db;
    auto from_txns = MineVia(info.name, &txn_db, &txns, nullptr, Options());
    ASSERT_TRUE(from_txns.ok())
        << info.name << ": " << from_txns.status().ToString();

    Database table_db;
    auto sales = LoadSalesTable(&table_db, "sales_src", txns,
                                TableBacking::kHeap);
    ASSERT_TRUE(sales.ok());
    auto from_table =
        MineVia(info.name, &table_db, nullptr, sales.value(), Options());
    ASSERT_TRUE(from_table.ok())
        << info.name << ": " << from_table.status().ToString();
    EXPECT_TRUE(from_table.value().itemsets == from_txns.value().itemsets)
        << info.name << ": table source diverges from transactions source";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllMinersTest,
    testing::Values(Case{11, 0.05, 150, 4, 15}, Case{12, 0.10, 120, 5, 12},
                    Case{13, 0.02, 300, 3, 25}, Case{14, 0.20, 80, 6, 8},
                    Case{15, 0.04, 200, 5, 18}));

// --------------------------------------------------------------------------
// Threaded SETM: any thread count, either storage backing and either count
// method must reproduce the one-shard run bit-for-bit — same itemsets, same
// rules, same per-iteration relation sizes. (kSortMerge at num_threads > 1
// is the per-partition sort-based counting path.)
// --------------------------------------------------------------------------

class ParallelSetmTest
    : public testing::TestWithParam<
          std::tuple<uint64_t, TableBacking, CountMethod>> {};

/// The ThreadSweep workload: small enough to sweep, deep enough (k >= 4)
/// to exercise several iterations.
TransactionDb SweepDb(uint64_t seed) {
  QuestOptions gen;
  gen.seed = seed;
  gen.num_transactions = 250;
  gen.avg_transaction_size = 5;
  gen.num_items = 22;
  gen.num_patterns = 15;
  return QuestGenerator(gen).Generate();
}

/// Same k, |R'_k|, |R_k|, R_k bytes and |C_k| at every iteration.
void ExpectSameIterations(const MiningResult& got, const MiningResult& want) {
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (size_t i = 0; i < want.iterations.size(); ++i) {
    const IterationStats& e = want.iterations[i];
    const IterationStats& r = got.iterations[i];
    EXPECT_EQ(r.k, e.k);
    EXPECT_EQ(r.r_prime_rows, e.r_prime_rows) << "k=" << e.k;
    EXPECT_EQ(r.r_rows, e.r_rows) << "k=" << e.k;
    EXPECT_EQ(r.r_bytes, e.r_bytes) << "k=" << e.k;
    EXPECT_EQ(r.c_size, e.c_size) << "k=" << e.k;
  }
}

TEST_P(ParallelSetmTest, IdenticalToSerialMiner) {
  TransactionDb txns = SweepDb(std::get<0>(GetParam()));

  MiningOptions options;
  options.min_support = 0.04;

  SetmOptions serial_opts;
  serial_opts.storage = std::get<1>(GetParam());
  serial_opts.count_method = std::get<2>(GetParam());
  Database serial_db;
  auto expected =
      MineVia("setm", &serial_db, &txns, nullptr, options, serial_opts);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto expected_rules = GenerateRules(expected.value().itemsets, options,
                                      RuleMode::kSingleConsequent)
                            .value();

  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    SetmOptions parallel_opts = serial_opts;
    parallel_opts.num_threads = threads;
    Database parallel_db;
    auto result =
        MineVia("setm", &parallel_db, &txns, nullptr, options, parallel_opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
    EXPECT_EQ(result.value().itemsets.num_transactions,
              expected.value().itemsets.num_transactions);

    // Per-iteration relation cardinalities are exact sums over partitions.
    ExpectSameIterations(result.value(), expected.value());

    // Identical itemsets must yield identical rules.
    auto rules = GenerateRules(result.value().itemsets, options,
                               RuleMode::kSingleConsequent)
                     .value();
    EXPECT_EQ(rules, expected_rules);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadSweep, ParallelSetmTest,
    testing::Combine(testing::Values(uint64_t{101}, uint64_t{303}),
                     testing::Values(TableBacking::kMemory,
                                     TableBacking::kHeap),
                     testing::Values(CountMethod::kSortMerge,
                                     CountMethod::kHash)));

// Serial "setm" is the one-shard coordinator run, which the thread sweep
// above uses as its reference. Anchor it to an implementation that shares
// none of its code: the literal Section 4.1 statements of setm-sql must
// produce the same relation sizes at every iteration, under every backing
// and count method. (filter_r1 stays off: setm-sql ignores it, so R'_2
// legitimately differs when it is on.)
class SerialSetmTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SerialSetmTest, PerIterationStatsMatchSetmSql) {
  TransactionDb txns = SweepDb(GetParam());
  MiningOptions options;
  options.min_support = 0.04;

  Database sql_db;
  auto expected = MineVia("setm-sql", &sql_db, &txns, nullptr, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GE(expected.value().iterations.size(), 4u);

  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    for (CountMethod method : {CountMethod::kSortMerge, CountMethod::kHash}) {
      SetmOptions knobs;
      knobs.storage = backing;
      knobs.count_method = method;
      SCOPED_TRACE(KnobLabel(knobs));
      Database db;
      auto result = MineVia("setm", &db, &txns, nullptr, options, knobs);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
      ExpectSameIterations(result.value(), expected.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SqlReference, SerialSetmTest,
                         testing::Values(uint64_t{101}, uint64_t{303}));

TEST(ParallelSetmTest, SharedDatabaseWorkerPoolAndOptions) {
  QuestOptions gen;
  gen.seed = 4242;
  gen.num_transactions = 200;
  gen.avg_transaction_size = 6;
  gen.num_items = 18;
  gen.num_patterns = 12;
  TransactionDb txns = QuestGenerator(gen).Generate();

  MiningOptions options;
  options.min_support = 0.05;
  options.filter_r1 = true;       // exercise the pruned-R1 ablation path
  options.max_pattern_length = 3;

  Database serial_db;
  auto expected = MineVia("setm", &serial_db, &txns, nullptr, options);
  ASSERT_TRUE(expected.ok());

  DatabaseOptions db_options;
  db_options.worker_threads = 3;  // miner reuses the database's pool
  Database db(db_options);
  ASSERT_NE(db.worker_pool(), nullptr);
  SetmOptions setm_options;
  setm_options.num_threads = 3;
  auto result = MineVia("setm", &db, &txns, nullptr, options, setm_options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
}

TEST(ParallelSetmTest, MoreThreadsThanTransactions) {
  TransactionDb txns = PaperExampleTransactions();
  Database serial_db;
  auto expected =
      MineVia("setm", &serial_db, &txns, nullptr, PaperExampleOptions());
  ASSERT_TRUE(expected.ok());

  Database db;
  SetmOptions setm_options;
  setm_options.num_threads = 64;  // far more than the example's transactions
  auto result = MineVia("setm", &db, &txns, nullptr, PaperExampleOptions(),
                        setm_options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
}

TEST(ParallelSetmTest, EmptyDatabase) {
  Database db;
  SetmOptions setm_options;
  setm_options.num_threads = 4;
  TransactionDb empty;
  auto result =
      MineVia("setm", &db, &empty, nullptr, MiningOptions{}, setm_options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().itemsets.TotalPatterns(), 0u);
}

// --------------------------------------------------------------------------
// SETM-via-SQL specifics (the direct class API; registry coverage above).
// --------------------------------------------------------------------------

TEST(SetmSqlTest, PaperExampleThroughSql) {
  Database db;
  auto sales = LoadSalesTable(&db, "sales", PaperExampleTransactions(),
                              TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  SetmSqlMiner miner(&db);
  auto result = miner.MineTable(*sales.value(), PaperExampleOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().itemsets.OfSize(1).size(), 6u);
  EXPECT_EQ(result.value().itemsets.OfSize(2).size(), 6u);
  EXPECT_EQ(result.value().itemsets.OfSize(3).size(), 1u);
  EXPECT_EQ(result.value().itemsets.CountOf({3, 4, 5}), 3);  // DEF
}

TEST(SetmSqlTest, ExecutedStatementsFollowSection41) {
  Database db;
  auto sales = LoadSalesTable(&db, "sales", PaperExampleTransactions(),
                              TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  SetmSqlMiner miner(&db);
  ASSERT_TRUE(miner.MineTable(*sales.value(), PaperExampleOptions()).ok());
  const auto& stmts = miner.executed_statements();
  ASSERT_FALSE(stmts.empty());
  // The three statement shapes of Section 4.1 must all appear.
  auto contains = [&](const std::string& needle) {
    for (const auto& s : stmts) {
      if (s.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("WHERE q.trans_id = p.trans_id AND q.item > p.item1"));
  EXPECT_TRUE(contains("GROUP BY p.item1, p.item2 "
                       "HAVING COUNT(*) >= :minsupport"));
  EXPECT_TRUE(contains("ORDER BY p.trans_id, p.item1, p.item2"));
}

TEST(SetmSqlTest, RerunDropsOnlyItsOwnScratchTables) {
  Database db;
  auto sales = LoadSalesTable(&db, "sales", PaperExampleTransactions(),
                              TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  SetmSqlMiner miner(&db);
  ASSERT_TRUE(miner.MineTable(*sales.value(), PaperExampleOptions()).ok());
  // A second run on the same instance must clean up its own scratch tables
  // and succeed.
  auto again = miner.MineTable(*sales.value(), PaperExampleOptions());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().itemsets.OfSize(2).size(), 6u);
}

TEST(SetmSqlTest, ForeignScratchTableIsAlreadyExistsNotClobbered) {
  Database db;
  auto sales = LoadSalesTable(&db, "sales", PaperExampleTransactions(),
                              TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  // A user relation that happens to sit in the scratch namespace.
  Schema schema({Column{"x", ValueType::kInt32}});
  auto user = db.catalog()->CreateTable("setm_r1", schema,
                                        TableBacking::kMemory);
  ASSERT_TRUE(user.ok());
  ASSERT_TRUE(user.value()->Insert(Tuple({Value::Int32(7)})).ok());

  SetmSqlMiner miner(&db);
  auto result = miner.MineTable(*sales.value(), PaperExampleOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists)
      << result.status().ToString();
  // The user table survived, contents intact.
  auto still = db.catalog()->GetTable("setm_r1");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.value()->num_rows(), 1u);
}

TEST(SetmSqlTest, ScratchNamedSourceIsInvalidArgument) {
  Database db;
  auto sales = LoadSalesTable(&db, "setm_r7", PaperExampleTransactions(),
                              TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  SetmSqlMiner miner(&db);
  auto result = miner.MineTable(*sales.value(), PaperExampleOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(db.catalog()->HasTable("setm_r7"));  // never dropped
}

TEST(SetmSqlTest, NonCatalogTableFails) {
  Database db;
  MemTable detached("sales", SetmMiner::SalesSchema());
  SetmSqlMiner miner(&db);
  auto result = miner.MineTable(detached, MiningOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Nested-loop miner specifics (I/O behaviour; correctness covered above).
// --------------------------------------------------------------------------

TEST(NestedLoopTest, PaperExample) {
  Database db;
  TransactionDb txns = PaperExampleTransactions();
  auto result = MineVia("nested-loop", &db, &txns, nullptr,
                        PaperExampleOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.OfSize(2).size(), 6u);
  EXPECT_EQ(result.value().itemsets.OfSize(3).size(), 1u);
}

TEST(NestedLoopTest, SmallPoolForcesRealIo) {
  QuestOptions gen;
  gen.num_transactions = 2000;
  gen.avg_transaction_size = 6;
  gen.num_items = 60;
  gen.seed = 404;
  TransactionDb txns = QuestGenerator(gen).Generate();

  DatabaseOptions small;
  small.pool_frames = 8;  // far smaller than the indexes
  Database db(small);
  MiningOptions options;
  options.min_support = 0.02;
  auto result = MineVia("nested-loop", &db, &txns, nullptr, options);
  ASSERT_TRUE(result.ok());
  // The strategy's probes must show up as (mostly random) page reads.
  EXPECT_GT(result.value().io.page_reads, 1000u);
  EXPECT_GT(result.value().io.random_reads, result.value().io.sequential_reads / 4);
}

}  // namespace
}  // namespace setm
