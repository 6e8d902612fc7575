// Tests for Algorithm SETM: the paper's worked example as a golden test,
// equivalence with the brute-force oracle, storage-mode equivalence and
// iteration statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>

#include "baselines/brute_force.h"
#include "common/random.h"
#include "core/paper_example.h"
#include "core/rules.h"
#include "core/setm.h"
#include "core/setm_pipeline.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"

namespace setm {
namespace {

std::vector<ItemId> Items(std::initializer_list<ItemId> items) {
  return std::vector<ItemId>(items);
}

// --------------------------------------------------------------------------
// Golden test: the Sections 4.2 worked example.
// --------------------------------------------------------------------------

class PaperExampleTest : public testing::Test {
 protected:
  void SetUp() override {
    Database db;
    SetmMiner miner(&db);
    auto result = miner.Mine(PaperExampleTransactions(), PaperExampleOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    result_ = std::move(result).value();
  }
  MiningResult result_;
};

TEST_F(PaperExampleTest, C1HoldsSupportedItems) {
  // Supports: A=6, B=4, C=4, D=6, E=4, F=3 (G=2, H=1 fail the 30% floor).
  const auto& c1 = result_.itemsets.OfSize(1);
  ASSERT_EQ(c1.size(), 6u);
  EXPECT_EQ(result_.itemsets.CountOf(Items({0})), 6);  // A
  EXPECT_EQ(result_.itemsets.CountOf(Items({1})), 4);  // B
  EXPECT_EQ(result_.itemsets.CountOf(Items({2})), 4);  // C
  EXPECT_EQ(result_.itemsets.CountOf(Items({3})), 6);  // D
  EXPECT_EQ(result_.itemsets.CountOf(Items({4})), 4);  // E
  EXPECT_EQ(result_.itemsets.CountOf(Items({5})), 3);  // F
  EXPECT_EQ(result_.itemsets.CountOf(Items({6})), 0);  // G infrequent
  EXPECT_EQ(result_.itemsets.CountOf(Items({7})), 0);  // H infrequent
}

TEST_F(PaperExampleTest, C2MatchesFigure2) {
  const auto& c2 = result_.itemsets.OfSize(2);
  ASSERT_EQ(c2.size(), 6u);
  // Figure 2: AB, AC, BC, DE, DF, EF — all with count 3.
  EXPECT_EQ(result_.itemsets.CountOf(Items({0, 1})), 3);  // AB
  EXPECT_EQ(result_.itemsets.CountOf(Items({0, 2})), 3);  // AC
  EXPECT_EQ(result_.itemsets.CountOf(Items({1, 2})), 3);  // BC
  EXPECT_EQ(result_.itemsets.CountOf(Items({3, 4})), 3);  // DE
  EXPECT_EQ(result_.itemsets.CountOf(Items({3, 5})), 3);  // DF
  EXPECT_EQ(result_.itemsets.CountOf(Items({4, 5})), 3);  // EF
  // Pairs that must NOT be frequent.
  EXPECT_EQ(result_.itemsets.CountOf(Items({0, 3})), 0);  // AD: 2 < 3
  EXPECT_EQ(result_.itemsets.CountOf(Items({1, 3})), 0);  // BD: 2 < 3
}

TEST_F(PaperExampleTest, C3MatchesFigure3) {
  const auto& c3 = result_.itemsets.OfSize(3);
  ASSERT_EQ(c3.size(), 1u);
  EXPECT_EQ(c3[0].items, Items({3, 4, 5}));  // DEF
  EXPECT_EQ(c3[0].count, 3);
  // ABC occurs only twice (transactions 10 and 30).
  EXPECT_EQ(result_.itemsets.CountOf(Items({0, 1, 2})), 0);
  EXPECT_EQ(result_.itemsets.MaxSize(), 3u);
}

TEST_F(PaperExampleTest, TerminatesWithEmptyLevel) {
  // The algorithm must have stopped: no level 4 patterns.
  EXPECT_TRUE(result_.itemsets.OfSize(4).empty());
  ASSERT_GE(result_.iterations.size(), 3u);
  // |R_2| = 6 patterns x 3 transactions = 18 tuples.
  EXPECT_EQ(result_.iterations[1].r_rows, 18u);
  // |R_3| = 1 pattern x 3 transactions.
  EXPECT_EQ(result_.iterations[2].r_rows, 3u);
}

TEST_F(PaperExampleTest, RulesMatchSection5) {
  auto rules =
      GenerateRules(result_.itemsets, PaperExampleOptions()).value();
  // Expected: 8 single-antecedent rules + 3 two-antecedent rules.
  ASSERT_EQ(rules.size(), 11u);

  auto has_rule = [&](std::vector<ItemId> ante, ItemId cons, double conf) {
    for (const auto& r : rules) {
      if (r.antecedent == ante && r.consequent == Items({cons})) {
        EXPECT_NEAR(r.confidence, conf, 1e-9);
        EXPECT_NEAR(r.support, 0.30, 1e-9);
        return true;
      }
    }
    return false;
  };
  constexpr ItemId A = 0, B = 1, C = 2, D = 3, E = 4, F = 5;
  // Section 5's list after C2:
  EXPECT_TRUE(has_rule({B}, A, 0.75));
  EXPECT_TRUE(has_rule({C}, A, 0.75));
  EXPECT_TRUE(has_rule({B}, C, 0.75));
  EXPECT_TRUE(has_rule({C}, B, 0.75));
  EXPECT_TRUE(has_rule({E}, D, 0.75));
  EXPECT_TRUE(has_rule({F}, D, 1.00));
  EXPECT_TRUE(has_rule({E}, F, 0.75));
  EXPECT_TRUE(has_rule({F}, E, 1.00));
  // And after C3:
  EXPECT_TRUE(has_rule({D, E}, F, 1.00));
  EXPECT_TRUE(has_rule({D, F}, E, 1.00));
  EXPECT_TRUE(has_rule({E, F}, D, 1.00));

  // A => B must be absent: |AB|/|A| = 3/6 = 50% < 70%.
  EXPECT_FALSE(has_rule({A}, B, 0.5));
}

TEST_F(PaperExampleTest, RuleFormattingMatchesPaperStyle) {
  auto rules =
      GenerateRules(result_.itemsets, PaperExampleOptions()).value();
  // Find B ==> A and check the exact rendering from Section 5.
  bool found = false;
  for (const auto& r : rules) {
    if (r.antecedent == Items({1}) && r.consequent == Items({0})) {
      EXPECT_EQ(FormatRule(r, PaperItemName), "B ==> A, [75.0%, 30.0%]");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --------------------------------------------------------------------------
// Equivalence with the brute-force oracle, parameterized over minsup and
// data shapes (property: SETM output == exhaustive enumeration).
// --------------------------------------------------------------------------

struct EquivalenceCase {
  uint64_t seed;
  double min_support;
  uint32_t num_transactions;
  double avg_size;
  uint32_t num_items;
};

class SetmEquivalenceTest : public testing::TestWithParam<EquivalenceCase> {};

TEST_P(SetmEquivalenceTest, MatchesBruteForce) {
  const EquivalenceCase& c = GetParam();
  QuestOptions gen_options;
  gen_options.seed = c.seed;
  gen_options.num_transactions = c.num_transactions;
  gen_options.avg_transaction_size = c.avg_size;
  gen_options.num_items = c.num_items;
  gen_options.num_patterns = 20;
  TransactionDb txns = QuestGenerator(gen_options).Generate();

  MiningOptions options;
  options.min_support = c.min_support;

  Database db;
  SetmMiner setm(&db);
  auto setm_result = setm.Mine(txns, options);
  ASSERT_TRUE(setm_result.ok()) << setm_result.status().ToString();

  BruteForceMiner oracle;
  auto oracle_result = oracle.Mine(txns, options);
  ASSERT_TRUE(oracle_result.ok());

  EXPECT_TRUE(setm_result.value().itemsets == oracle_result.value().itemsets)
      << "SETM found " << setm_result.value().itemsets.TotalPatterns()
      << " patterns, oracle " << oracle_result.value().itemsets.TotalPatterns();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SetmEquivalenceTest,
    testing::Values(EquivalenceCase{1, 0.05, 200, 4, 20},
                    EquivalenceCase{2, 0.10, 150, 5, 15},
                    EquivalenceCase{3, 0.02, 400, 3, 30},
                    EquivalenceCase{4, 0.15, 100, 6, 10},
                    EquivalenceCase{5, 0.01, 500, 4, 50},
                    EquivalenceCase{6, 0.08, 250, 8, 12},
                    EquivalenceCase{7, 0.30, 60, 5, 8},
                    EquivalenceCase{8, 0.05, 300, 2, 25}));

// --------------------------------------------------------------------------
// Storage-mode and option behaviour.
// --------------------------------------------------------------------------

TEST(SetmCountMethodTest, PaperExampleUnderHashCounting) {
  Database db;
  SetmOptions opts;
  opts.count_method = CountMethod::kHash;
  auto result = SetmMiner(&db, opts).Mine(PaperExampleTransactions(),
                                          PaperExampleOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.OfSize(2).size(), 6u);
  EXPECT_EQ(result.value().itemsets.OfSize(3).size(), 1u);
}

TEST(SetmModesTest, HeapAndMemoryBackingsAgree) {
  QuestOptions gen;
  gen.num_transactions = 300;
  gen.avg_transaction_size = 5;
  gen.num_items = 25;
  gen.seed = 99;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.04;

  Database db_mem;
  SetmMiner mem(&db_mem, SetmOptions{TableBacking::kMemory});
  auto mem_result = mem.Mine(txns, options);
  ASSERT_TRUE(mem_result.ok());

  Database db_heap;
  SetmMiner heap(&db_heap, SetmOptions{TableBacking::kHeap});
  auto heap_result = heap.Mine(txns, options);
  ASSERT_TRUE(heap_result.ok());

  EXPECT_TRUE(mem_result.value().itemsets == heap_result.value().itemsets);
  // Heap mode produces real page traffic; memory mode touches only temp
  // spill space (none at this size).
  EXPECT_GT(heap_result.value().io.pages_allocated,
            mem_result.value().io.pages_allocated);
}

TEST(SetmModesTest, FilterR1DoesNotChangeResults) {
  QuestOptions gen;
  gen.num_transactions = 250;
  gen.seed = 7;
  gen.avg_transaction_size = 4;
  gen.num_items = 40;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions plain;
  plain.min_support = 0.05;
  MiningOptions filtered = plain;
  filtered.filter_r1 = true;

  Database db1, db2;
  auto r1 = SetmMiner(&db1).Mine(txns, plain);
  auto r2 = SetmMiner(&db2).Mine(txns, filtered);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r1.value().itemsets == r2.value().itemsets);
}

TEST(SetmModesTest, MaxPatternLengthTruncatesLoop) {
  TransactionDb txns = PaperExampleTransactions();
  MiningOptions options = PaperExampleOptions();
  options.max_pattern_length = 2;
  Database db;
  auto result = SetmMiner(&db).Mine(txns, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.MaxSize(), 2u);
  EXPECT_EQ(result.value().itemsets.OfSize(2).size(), 6u);
}

TEST(SetmModesTest, AbsoluteMinSupportCountOverridesFraction) {
  TransactionDb txns = PaperExampleTransactions();
  MiningOptions options;
  options.min_support = 0.99;     // would kill everything
  options.min_support_count = 3;  // but the absolute count wins
  Database db;
  auto result = SetmMiner(&db).Mine(txns, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.OfSize(1).size(), 6u);
}

TEST(SetmModesTest, EmptyDatabase) {
  Database db;
  auto result = SetmMiner(&db).Mine({}, MiningOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.TotalPatterns(), 0u);
  EXPECT_EQ(result.value().itemsets.num_transactions, 0u);
}

TEST(SetmModesTest, SingleItemTransactions) {
  TransactionDb txns;
  for (int i = 0; i < 10; ++i) txns.push_back({i, {1}});
  MiningOptions options;
  options.min_support = 0.5;
  Database db;
  auto result = SetmMiner(&db).Mine(txns, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.TotalPatterns(), 1u);
  EXPECT_EQ(result.value().itemsets.CountOf({1}), 10);
}

TEST(SetmModesTest, RejectsUnsortedTransactionItems) {
  TransactionDb txns{{1, {3, 1, 2}}};
  Database db;
  EXPECT_FALSE(SetmMiner(&db).Mine(txns, MiningOptions{}).ok());
}

TEST(SetmModesTest, RejectsDuplicateItems) {
  TransactionDb txns{{1, {2, 2}}};
  Database db;
  EXPECT_FALSE(SetmMiner(&db).Mine(txns, MiningOptions{}).ok());
}

TEST(SetmModesTest, IterationStatsAreConsistent) {
  QuestOptions gen;
  gen.num_transactions = 200;
  gen.avg_transaction_size = 6;
  gen.num_items = 15;
  gen.seed = 31;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.05;
  Database db;
  auto result = SetmMiner(&db).Mine(txns, options);
  ASSERT_TRUE(result.ok());
  const auto& iters = result.value().iterations;
  ASSERT_GE(iters.size(), 2u);
  EXPECT_EQ(iters[0].k, 1u);
  for (size_t i = 0; i < iters.size(); ++i) {
    EXPECT_EQ(iters[i].k, i + 1);
    EXPECT_EQ(iters[i].c_size, result.value().itemsets.OfSize(i + 1).size());
    // R_k never exceeds R'_k.
    EXPECT_LE(iters[i].r_rows, iters[i].r_prime_rows);
    // Size accounting: bytes = rows x (k + 1) x 4.
    EXPECT_EQ(iters[i].r_bytes, iters[i].r_rows * (i + 2) * 4);
  }
}

// MiningResult::io must be the database ledger's delta across the whole
// mine, the SALES scan included — at one shard and at several. SALES lives
// in a file database whose pool is much smaller than it, and a filler table
// loaded after it evicts every SALES page, so the scan really reads.
class SetmIoLedgerTest : public testing::TestWithParam<size_t> {};

TEST_P(SetmIoLedgerTest, ResultIoIsTheDatabaseDelta) {
  const size_t threads = GetParam();
  const std::string path = testing::TempDir() + "/setm_io_ledger_" +
                           std::to_string(threads) + ".db";
  const auto remove_files = [&path] {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  };
  remove_files();  // a crashed earlier run may have left them
  QuestOptions gen;
  gen.seed = 5;
  gen.num_transactions = 2000;
  gen.avg_transaction_size = 5;
  gen.num_items = 30;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.04;
  {
    DatabaseOptions db_options;
    db_options.file_path = path;
    db_options.pool_frames = 8;
    auto db_or = Database::Open(db_options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Database* db = db_or.value().get();
    auto sales = LoadSalesTable(db, "sales", txns, TableBacking::kHeap);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    auto filler = LoadSalesTable(db, "filler", txns, TableBacking::kHeap);
    ASSERT_TRUE(filler.ok()) << filler.status().ToString();
    ASSERT_GT(sales.value()->num_pages(), 2 * db_options.pool_frames);
    ASSERT_GT(filler.value()->num_pages(), db_options.pool_frames);

    SetmOptions knobs{TableBacking::kHeap};
    knobs.num_threads = threads;
    const IoStats before = *db->io_stats();
    auto result = SetmMiner(db, knobs).MineTable(*sales.value(), options);
    const IoStats delta = Diff(*db->io_stats(), before);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().io.page_reads, delta.page_reads);
    EXPECT_EQ(result.value().io.page_writes, delta.page_writes);
    EXPECT_GE(result.value().io.page_reads, sales.value()->num_pages());
  }
  remove_files();
}

INSTANTIATE_TEST_SUITE_P(Threads, SetmIoLedgerTest,
                         testing::Values(size_t{1}, size_t{3}));

// SETM's relations and sort runs move a page at a time: a kHeap mine on a
// file database whose pools are far smaller than its relations fetches
// pool pages at most twice per page it reads or writes. One FetchPage per
// row anywhere on the path puts the ratio in the hundreds.
class SetmPoolFetchTest : public testing::TestWithParam<CountMethod> {};

TEST_P(SetmPoolFetchTest, FetchesStayWithinTwicePageTraffic) {
  const std::string path = testing::TempDir() + "/setm_pool_fetches_" +
                           std::to_string(static_cast<int>(GetParam())) +
                           ".db";
  const auto remove_files = [&path] {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  };
  remove_files();
  QuestOptions gen;
  gen.seed = 11;
  gen.num_transactions = 3000;
  gen.avg_transaction_size = 8;
  gen.num_items = 60;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.03;
  {
    DatabaseOptions db_options;
    db_options.file_path = path;
    db_options.pool_frames = 16;
    db_options.temp_pool_frames = 16;
    db_options.sort_memory_bytes = 64 << 10;
    auto db_or = Database::Open(db_options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Database* db = db_or.value().get();
    auto sales = LoadSalesTable(db, "sales", txns, TableBacking::kHeap);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    ASSERT_TRUE(db->Commit().ok());

    const auto fetches = [db] {
      const BufferPool::PoolStats main = db->pool()->Stats();
      const BufferPool::PoolStats temp = db->temp_pool()->Stats();
      return main.hits + main.misses + temp.hits + temp.misses;
    };
    const uint64_t fetches_before = fetches();
    SetmOptions knobs{TableBacking::kHeap};
    knobs.count_method = GetParam();
    auto result = SetmMiner(db, knobs).MineTable(*sales.value(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GE(result.value().iterations.size(), 3u);
    const uint64_t pages =
        result.value().io.page_reads + result.value().io.page_writes;
    const uint64_t fetched = fetches() - fetches_before;
    EXPECT_GT(pages, 20 * db_options.pool_frames);
    EXPECT_LE(fetched, 2 * pages)
        << fetched << " pool fetches for " << pages << " pages read+written";
  }
  remove_files();
}

INSTANTIATE_TEST_SUITE_P(Methods, SetmPoolFetchTest,
                         testing::Values(CountMethod::kSortMerge,
                                         CountMethod::kHash));

// The number of distinct k-itemsets of R'_k: the candidates the count pass
// groups its rows into. R_{k-1} holds (t, s) for every frequent
// (k-1)-itemset s contained in transaction t, and R'_k extends each s with
// the items of t above its last one.
uint64_t DistinctCandidates(const TransactionDb& txns,
                            const FrequentItemsets& frequent, size_t k) {
  std::set<std::vector<ItemId>> candidates;
  for (const Transaction& t : txns) {
    if (k == 1) {
      for (ItemId item : t.items) candidates.insert({item});
      continue;
    }
    for (const PatternCount& s : frequent.OfSize(k - 1)) {
      if (!std::includes(t.items.begin(), t.items.end(), s.items.begin(),
                         s.items.end())) {
        continue;
      }
      for (auto it = std::upper_bound(t.items.begin(), t.items.end(),
                                      s.items.back());
           it != t.items.end(); ++it) {
        std::vector<ItemId> candidate = s.items;
        candidate.push_back(*it);
        candidates.insert(std::move(candidate));
      }
    }
  }
  return candidates.size();
}

// Reads, at each finished iteration, how far three counters moved during
// it.
class CounterDeltas : public MiningObserver {
 public:
  struct Delta {
    uint64_t count_rows = 0;
    uint64_t spilled_runs = 0;
    uint64_t sort_rows = 0;
  };

  CounterDeltas() { last_ = Now(); }

  bool OnIteration(const IterationStats&) override {
    const Delta now = Now();
    deltas.push_back({now.count_rows - last_.count_rows,
                      now.spilled_runs - last_.spilled_runs,
                      now.sort_rows - last_.sort_rows});
    last_ = now;
    return true;
  }

  std::vector<Delta> deltas;  ///< one per iteration, in k order

 private:
  static Delta Now() {
    auto* registry = obs::MetricsRegistry::Global();
    return {registry->GetCounter("setm_count_rows_total")->Value(),
            registry->GetCounter("setm_count_spilled_runs_total")->Value(),
            registry->GetCounter("setm_sort_rows_total")->Value()};
  }

  Delta last_;
};

// R'_k is a stream, never a relation, R_k is written in join order, and the
// C_k count aggregates each R'_k row into a table within its budget. Under
// kSortMerge the budget is the sort budget, 16 KiB here, below the
// distinct-candidate footprint: the count spills runs of aggregated
// (itemset, count) entries, the only rows a mine sorts, yet returns an
// unbounded mine's itemsets and IterationStats. kHash counts without a
// budget and sorts nothing, so a kMemory kHash mine moves no page at all.
class SetmCountBudgetTest
    : public testing::TestWithParam<
          std::tuple<TableBacking, CountMethod, size_t>> {};

TEST_P(SetmCountBudgetTest, SpillsOnlyAggregatedEntriesWithinTheBudget) {
  const auto [storage, method, threads] = GetParam();
  constexpr size_t kBudget = 16 << 10;
  QuestOptions gen;
  gen.seed = 21;
  gen.num_transactions = 1500;
  gen.avg_transaction_size = 6;
  gen.num_items = 40;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.02;
  SetmOptions knobs{storage};
  knobs.num_threads = threads;
  obs::Gauge* peak =
      obs::MetricsRegistry::Global()->GetGauge("setm_mem_count_bytes");

  // The unbounded count of the same mine, and its table footprint.
  MiningResult expected;
  int64_t footprint = 0;
  {
    Database db;
    SetmOptions unbounded = knobs;
    unbounded.count_method = CountMethod::kHash;
    peak->Set(0);
    auto reference = SetmMiner(&db, unbounded).Mine(txns, options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    expected = std::move(reference).value();
    footprint = peak->Value();
  }

  DatabaseOptions db_options;
  db_options.sort_memory_bytes = kBudget;
  Database db(db_options);
  knobs.count_method = method;
  CounterDeltas deltas;
  options.observer = &deltas;
  peak->Set(0);
  auto result = SetmMiner(&db, knobs).Mine(txns, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.itemsets);

  const auto& iterations = result.value().iterations;
  ASSERT_GE(iterations.size(), 3u);
  ASSERT_EQ(iterations.size(), expected.iterations.size());
  ASSERT_EQ(deltas.deltas.size(), iterations.size());
  uint64_t spilled_runs = 0;
  uint64_t sorted_rows = 0;
  for (size_t i = 0; i < iterations.size(); ++i) {
    const IterationStats& it = iterations[i];
    const IterationStats& want = expected.iterations[i];
    SCOPED_TRACE("k=" + std::to_string(it.k));
    EXPECT_EQ(it.k, want.k);
    EXPECT_EQ(it.r_prime_rows, want.r_prime_rows);
    EXPECT_EQ(it.r_rows, want.r_rows);
    EXPECT_EQ(it.r_bytes, want.r_bytes);
    EXPECT_EQ(it.r_pages, want.r_pages);
    EXPECT_EQ(it.c_size, want.c_size);

    const CounterDeltas::Delta& d = deltas.deltas[i];
    EXPECT_EQ(d.count_rows, it.r_prime_rows);
    // Each spilled run holds one entry per itemset it counted.
    if (d.spilled_runs == 0) {
      EXPECT_EQ(d.sort_rows, 0u);
    } else {
      EXPECT_GE(d.sort_rows, d.spilled_runs);
      EXPECT_LE(d.sort_rows,
                DistinctCandidates(txns, expected.itemsets, it.k) *
                    d.spilled_runs);
    }
    spilled_runs += d.spilled_runs;
    sorted_rows += d.sort_rows;
  }
  if (method == CountMethod::kSortMerge) {
    EXPECT_GT(footprint, static_cast<int64_t>(kBudget));
    EXPECT_GT(spilled_runs, 0u);
    EXPECT_LE(peak->Value(), static_cast<int64_t>(kBudget));
  } else {
    EXPECT_EQ(spilled_runs, 0u);
    EXPECT_EQ(sorted_rows, 0u);
  }
  if (storage == TableBacking::kMemory && method == CountMethod::kHash) {
    EXPECT_EQ(result.value().io.page_reads, 0u);
    EXPECT_EQ(result.value().io.page_writes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SetmCountBudgetTest,
    testing::Combine(testing::Values(TableBacking::kMemory,
                                     TableBacking::kHeap),
                     testing::Values(CountMethod::kSortMerge,
                                     CountMethod::kHash),
                     testing::Values(size_t{1}, size_t{3})));

// The count floor applies to an itemset's total, after the runs are summed:
// {7} is counted once in each of three spilled runs and once more in the
// table's remainder, below a floor of 4 every time, and survives with 4.
TEST(BudgetedCountTest, FloorAppliesAfterTheCrossRunSum) {
  Database db;
  // A k = 1 table starts at 64 slots of 12 bytes and holds 32 itemsets; a
  // budget of exactly that size never lets it grow.
  BudgetedCount count(ExecContext::From(&db), 1, 64 * 12);
  ItemId other = 100;
  for (int run = 0; run < 3; ++run) {
    const ItemId seven = 7;
    ASSERT_TRUE(count.Add(&seven).ok());
    // 32 more itemsets: the last one finds the table full and spills it.
    for (int i = 0; i < 32; ++i, ++other) {
      ASSERT_TRUE(count.Add(&other).ok());
    }
  }
  const ItemId seven = 7;
  ASSERT_TRUE(count.Add(&seven).ok());
  EXPECT_EQ(count.stats().spilled_runs, 3u);
  EXPECT_EQ(count.stats().spilled_entries, 3u * 32);
  EXPECT_EQ(count.stats().rows, 100u);

  std::vector<PatternCount> out;
  ASSERT_TRUE(count.Finish(/*min_count=*/4, &out).ok());
  EXPECT_EQ(count.stats().peak_bytes, 64u * 12);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].items, Items({7}));
  EXPECT_EQ(out[0].count, 4);
}

// The streamed join is what lets R_k skip its sort: over random R_{k-1}
// and R_1 it must emit exactly the nested-loop join's rows, strictly
// ascending on (trans_id, item_1..item_k). The inputs cover single-item
// transactions, trans_ids on one side only, and an R_1 whose dropped items
// (the filter_r1 ablation) still appear in R_{k-1}.
TEST(SetmJoinTest, StreamedJoinMatchesNestedLoopInOrder) {
  using Row = std::vector<int32_t>;
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t k = 2 + rng.Uniform(3);  // R_{k-1} has k-1 items
    const TableBacking backing =
        trial % 2 == 0 ? TableBacking::kMemory : TableBacking::kHeap;
    std::vector<bool> dropped(12);
    if (trial % 3 == 0) {
      for (size_t i = 0; i < dropped.size(); ++i) {
        dropped[i] = rng.Bernoulli(0.3);
      }
    }
    std::vector<Row> left_rows;
    std::vector<Row> r1_rows;
    for (int32_t tid = 0; tid < 30; ++tid) {
      if (rng.Bernoulli(0.2)) continue;  // absent from both sides
      std::vector<int32_t> items;
      const size_t size = 1 + rng.Uniform(6);
      while (items.size() < size) {
        const int32_t item = static_cast<int32_t>(rng.Uniform(12));
        if (std::find(items.begin(), items.end(), item) == items.end()) {
          items.push_back(item);
        }
      }
      std::sort(items.begin(), items.end());
      const bool in_r1 = !rng.Bernoulli(0.15);
      const bool in_left = !rng.Bernoulli(0.15);
      if (in_r1) {
        for (int32_t item : items) {
          if (!dropped[item]) r1_rows.push_back({tid, item});
        }
      }
      if (!in_left) continue;
      // Some (k-1)-subsets of the transaction, in lexicographic order.
      std::vector<bool> pick(items.size());
      if (k - 1 > items.size()) continue;
      std::fill(pick.begin(), pick.begin() + (k - 1), true);
      do {
        if (!rng.Bernoulli(0.7)) continue;
        Row row{tid};
        for (size_t i = 0; i < items.size(); ++i) {
          if (pick[i]) row.push_back(items[i]);
        }
        left_rows.push_back(row);
      } while (std::prev_permutation(pick.begin(), pick.end()));
    }
    std::sort(left_rows.begin(), left_rows.end());

    Database db;
    auto left = IntRelation::Create(&db, backing, k);
    auto r1 = IntRelation::Create(&db, backing, 2);
    ASSERT_TRUE(left.ok() && r1.ok());
    for (const Row& row : left_rows) {
      ASSERT_TRUE(left.value()->Append(row.data(), 1).ok());
    }
    for (const Row& row : r1_rows) {
      ASSERT_TRUE(r1.value()->Append(row.data(), 1).ok());
    }

    std::vector<Row> streamed;
    ASSERT_TRUE(JoinRkPrime(*left.value(), *r1.value(),
                            [&](const int32_t* row) {
                              streamed.emplace_back(row, row + k + 1);
                              return Status::OK();
                            })
                    .ok());
    for (size_t i = 1; i < streamed.size(); ++i) {
      ASSERT_LT(streamed[i - 1], streamed[i]) << "trial " << trial;
    }

    std::vector<Row> nested;
    for (const Row& p : left_rows) {
      for (const Row& q : r1_rows) {
        if (q[0] != p[0] || q[1] <= p[k - 1]) continue;
        Row row = p;
        row.push_back(q[1]);
        nested.push_back(row);
      }
    }
    std::sort(nested.begin(), nested.end());
    EXPECT_EQ(streamed, nested) << "trial " << trial << ", k = " << k;
  }
}

// Support anti-monotonicity: every (k-1)-subset of a frequent k-pattern is
// frequent with at least the same count.
TEST(SetmPropertiesTest, SupportIsAntiMonotone) {
  QuestOptions gen;
  gen.num_transactions = 400;
  gen.avg_transaction_size = 6;
  gen.num_items = 20;
  gen.seed = 555;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.03;
  Database db;
  auto result = SetmMiner(&db).Mine(txns, options);
  ASSERT_TRUE(result.ok());
  const auto& itemsets = result.value().itemsets;
  for (size_t k = 2; k <= itemsets.MaxSize(); ++k) {
    for (const auto& pattern : itemsets.OfSize(k)) {
      for (size_t drop = 0; drop < pattern.items.size(); ++drop) {
        std::vector<ItemId> subset;
        for (size_t i = 0; i < pattern.items.size(); ++i) {
          if (i != drop) subset.push_back(pattern.items[i]);
        }
        const int64_t subset_count = itemsets.CountOf(subset);
        EXPECT_GE(subset_count, pattern.count);
        EXPECT_GT(subset_count, 0);
      }
    }
  }
}

}  // namespace
}  // namespace setm
