// Tests for Algorithm SETM: the paper's worked example as a golden test,
// equivalence with the brute-force oracle, storage-mode equivalence and
// iteration statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
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
#include "exec/external_sort.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/coordinator.h"
#include "shard/local_backend.h"

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
  // Heap mode produces real page traffic; memory mode touches only the
  // pages of spilled sort runs (none at this size).
  EXPECT_GT(heap_result.value().io.pages_allocated,
            mem_result.value().io.pages_allocated);
}

// The pages the grouped encoder writes for R_k as the paper defines it,
// rebuilt from the transactions and the mined C_k: per transaction, the
// ids (positions in itemset order) of the C_k itemsets it contains; R_1 is
// the transactions' items. The transactions hold distinct items.
uint64_t ReferenceRPages(const TransactionDb& txns,
                         const FrequentItemsets& itemsets, size_t k) {
  std::vector<std::vector<ItemId>> ck;
  for (const PatternCount& pattern : itemsets.OfSize(k)) {
    ck.push_back(pattern.items);
  }
  std::sort(ck.begin(), ck.end());
  GroupedRelation rk(nullptr, "R_" + std::to_string(k));
  std::vector<int32_t> ids;
  for (const Transaction& txn : txns) {
    ids.clear();
    if (k == 1) {
      ids = txn.items;
    } else {
      for (size_t id = 0; id < ck.size(); ++id) {
        if (std::includes(txn.items.begin(), txn.items.end(), ck[id].begin(),
                          ck[id].end())) {
          ids.push_back(static_cast<int32_t>(id));
        }
      }
    }
    EXPECT_TRUE(rk.Append(txn.id, ids.data(), ids.size()).ok());
  }
  EXPECT_TRUE(rk.Finish().ok());
  return rk.num_pages();
}

// ||R_k|| is the pages of R_k's groups under both backings, which hold the
// same page images, so IterationStats::r_pages does not depend on the
// backing, at one shard or several.
TEST(SetmModesTest, BackingsReportTheSameRPages) {
  QuestOptions gen;
  gen.seed = 3;
  gen.num_transactions = 2000;
  gen.avg_transaction_size = 8;
  gen.num_items = 100;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.02;
  for (size_t threads : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::vector<IterationStats> by_backing[2];
    FrequentItemsets itemsets;
    for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
      Database db;
      SetmOptions knobs{backing};
      knobs.num_threads = threads;
      auto result = SetmMiner(&db, knobs).Mine(txns, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      by_backing[backing == TableBacking::kHeap] = result.value().iterations;
      itemsets = result.value().itemsets;
    }
    const auto& mem = by_backing[0];
    const auto& heap = by_backing[1];
    ASSERT_GE(mem.size(), 4u);
    ASSERT_EQ(mem.size(), heap.size());
    ASSERT_GT(mem[0].r_pages, 1u);
    for (size_t i = 0; i < mem.size(); ++i) {
      SCOPED_TRACE("k=" + std::to_string(i + 1));
      EXPECT_EQ(mem[i].r_rows, heap[i].r_rows);
      EXPECT_EQ(mem[i].r_pages, heap[i].r_pages);
      // r_bytes stays the paper's (k+1) ints a row.
      EXPECT_EQ(heap[i].r_bytes, heap[i].r_rows * (i + 2) * 4);
      if (threads == 1) {
        EXPECT_EQ(heap[i].r_pages, ReferenceRPages(txns, itemsets, i + 1));
      }
    }
  }
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
// file database whose one pool is far smaller than its relations fetches
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
    db_options.pool_frames = 4;
    db_options.sort_memory_bytes = 64 << 10;
    auto db_or = Database::Open(db_options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Database* db = db_or.value().get();
    auto sales = LoadSalesTable(db, "sales", txns, TableBacking::kHeap);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    ASSERT_TRUE(db->Commit().ok());

    const auto fetches = [db] {
      const BufferPool::PoolStats stats = db->pool()->Stats();
      return stats.hits + stats.misses;
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
    uint64_t spilled_entries = 0;
  };

  CounterDeltas() { last_ = Now(); }

  bool OnIteration(const IterationStats&) override {
    const Delta now = Now();
    deltas.push_back({now.count_rows - last_.count_rows,
                      now.spilled_runs - last_.spilled_runs,
                      now.spilled_entries - last_.spilled_entries});
    last_ = now;
    return true;
  }

  std::vector<Delta> deltas;  ///< one per iteration, in k order

 private:
  static Delta Now() {
    auto* registry = obs::MetricsRegistry::Global();
    return {registry->GetCounter("setm_count_rows_total")->Value(),
            registry->GetCounter("setm_count_spilled_runs_total")->Value(),
            registry->GetCounter("setm_count_spilled_entries_total")->Value()};
  }

  Delta last_;
};

// R'_k is a stream, never a relation, R_k is written in join order, and the
// C_k count aggregates each R'_k row into a table within its budget. Under
// kSortMerge the budget is the sort budget, 16 KiB here, below the
// distinct-candidate footprint: the count spills runs of aggregated
// (itemset, count) entries, the only rows a mine writes besides R_k, yet
// returns an unbounded mine's itemsets and IterationStats. kHash counts
// without a budget and spills nothing, so a kMemory kHash mine moves no
// page at all.
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
  uint64_t spilled_entries = 0;
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

    // Pass k finishes the count of R'_{k+1}, so iteration k's span holds
    // that count. Iteration 1 is reported before pass 1, so its span holds
    // only C_1's count of R_1, and iteration 2's holds R'_2's and R'_3's.
    size_t first_level = it.k + 1;
    size_t last_level = it.k + 1;
    if (it.k == 1) first_level = last_level = 1;
    if (it.k == 2) first_level = 2;
    uint64_t counted_rows = 0;
    uint64_t candidates = 0;
    for (size_t level = first_level; level <= last_level; ++level) {
      if (level <= iterations.size()) {
        counted_rows += iterations[level - 1].r_prime_rows;
      }
      candidates += DistinctCandidates(txns, expected.itemsets, level);
    }
    const CounterDeltas::Delta& d = deltas.deltas[i];
    EXPECT_EQ(d.count_rows, counted_rows);
    // Each spilled run holds one entry per itemset it counted.
    if (d.spilled_runs == 0) {
      EXPECT_EQ(d.spilled_entries, 0u);
    } else {
      EXPECT_GE(d.spilled_entries, d.spilled_runs);
      EXPECT_LE(d.spilled_entries, candidates * d.spilled_runs);
    }
    spilled_runs += d.spilled_runs;
    spilled_entries += d.spilled_entries;
  }
  if (method == CountMethod::kSortMerge) {
    EXPECT_GT(footprint, static_cast<int64_t>(kBudget));
    EXPECT_GT(spilled_runs, 0u);
    EXPECT_LE(peak->Value(), static_cast<int64_t>(kBudget));
  } else {
    EXPECT_EQ(spilled_runs, 0u);
    EXPECT_EQ(spilled_entries, 0u);
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

// A SETM mine sorts no row: its relations arrive in order and the C_k
// count merges its own spilled runs. A kHeap mine whose count spills under
// a 16 KiB budget, with merge passes, leaves every external-sort counter
// where it was.
TEST(SetmCountSpillTest, SpillingMineSortsNothing) {
  QuestOptions gen;
  gen.seed = 21;
  gen.num_transactions = 1500;
  gen.avg_transaction_size = 6;
  gen.num_items = 40;
  const TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.02;
  SetmOptions knobs{TableBacking::kHeap};
  knobs.count_method = CountMethod::kSortMerge;
  DatabaseOptions db_options;
  db_options.sort_memory_bytes = 16 << 10;
  Database db(db_options);
  auto* registry = obs::MetricsRegistry::Global();
  const std::vector<std::string> sort_counters = {
      "setm_sort_rows_total", "setm_sort_runs_total",
      "setm_sort_spilled_runs_total", "setm_sort_merge_passes_total"};
  std::vector<uint64_t> before;
  for (const std::string& name : sort_counters) {
    before.push_back(registry->GetCounter(name)->Value());
  }
  obs::Counter* spilled =
      registry->GetCounter("setm_count_spilled_runs_total");
  obs::Counter* passes =
      registry->GetCounter("setm_count_merge_passes_total");
  const uint64_t spilled_before = spilled->Value();
  const uint64_t passes_before = passes->Value();
  auto result = SetmMiner(&db, knobs).Mine(txns, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(spilled->Value(), spilled_before);
  EXPECT_GT(passes->Value(), passes_before);
  for (size_t i = 0; i < sort_counters.size(); ++i) {
    EXPECT_EQ(registry->GetCounter(sort_counters[i])->Value(), before[i])
        << sort_counters[i];
  }
}

// The count floor applies to an itemset's total, after the runs are summed:
// {7} is counted once in each of three spilled runs and once more in the
// table's remainder, below a floor of 4 every time, and survives with 4.
TEST(BudgetedCountTest, FloorAppliesAfterTheCrossRunSum) {
  Database db;
  // A budget of exactly a new k = 1 table's allocation never lets it grow:
  // each run holds as many itemsets as that allocation does.
  const size_t budget = ItemsetCounts(1).bytes();
  const size_t per_run = ItemsetCounts::MaxEntriesWithin(1, budget);
  ASSERT_GT(per_run, 1u);
  BudgetedCount count(ExecContext::From(&db), 1, budget);
  ItemId other = 100;
  for (int run = 0; run < 3; ++run) {
    const ItemId seven = 7;
    ASSERT_TRUE(count.Add(&seven).ok());
    // per_run more itemsets: the last one finds the table full and spills.
    for (size_t i = 0; i < per_run; ++i, ++other) {
      ASSERT_TRUE(count.Add(&other).ok());
    }
  }
  const ItemId seven = 7;
  ASSERT_TRUE(count.Add(&seven).ok());
  EXPECT_EQ(count.stats().spilled_runs, 3u);
  EXPECT_EQ(count.stats().spilled_entries, 3 * per_run);
  EXPECT_EQ(count.stats().rows, 3 * (per_run + 1) + 1);

  std::vector<PatternCount> out;
  ASSERT_TRUE(count
                  .Finish(/*min_count=*/4,
                          [&out](const ItemId* key, int64_t total) {
                            out.push_back(PatternCount{{key[0]}, total});
                          })
                  .ok());
  EXPECT_LE(count.stats().peak_bytes, budget);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].items, Items({7}));
  EXPECT_EQ(out[0].count, 4);
}

/// C_1's keys, each of `items` extending the empty itemset.
std::vector<CandidateKey> C1Keys(const std::vector<ItemId>& items) {
  std::vector<CandidateKey> keys;
  for (ItemId item : items) keys.push_back(CandidateKey{0, item});
  return keys;
}

// The count in candidate-id space, over the pairs of 200 items whose
// 19,900 counters take 155 KiB: a dense array when the budget holds them,
// else a hashed table of (id, rank) keys that spills within a 16 KiB
// budget and never raises setm_mem_count_bytes past it. Both give every
// pair that reaches the floor as a (C_1 id, item, count) row, in key order.
TEST(ExtensionCountTest, DenseAndSpilledCountsAgreeWithinTheBudget) {
  constexpr int32_t kItems = 200;
  std::vector<ItemId> items(kItems);
  for (int32_t rank = 0; rank < kItems; ++rank) {
    items[rank] = 1000 + 2 * rank;
  }
  const std::vector<CandidateKey> c1 = C1Keys(items);
  // C_1's level is the key space of R'_2's count: each item extended by a
  // larger one.
  auto level = IndexCandidates(1, c1, nullptr);
  ASSERT_TRUE(level.ok()) << level.status().ToString();
  const ExtensionSpace& space = level.value().space;
  std::vector<int32_t> ranks(kItems);
  std::iota(ranks.begin(), ranks.end(), 0);
  // Pair (a, b) is counted a % 3 + 1 times; a's C_1 id is its rank.
  std::vector<int32_t> expected;
  for (int32_t a = 0; a < kItems; ++a) {
    for (int32_t b = a + 1; a % 3 >= 1 && b < kItems; ++b) {
      expected.insert(expected.end(), {a, items[b], a % 3 + 1});
    }
  }
  obs::Gauge* peak =
      obs::MetricsRegistry::Global()->GetGauge("setm_mem_count_bytes");
  for (size_t budget : {size_t{1} << 20, size_t{16} << 10}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    DatabaseOptions db_options;
    db_options.sort_memory_bytes = budget;
    Database db(db_options);
    peak->Set(0);
    ExtensionCount count(ExecContext::From(&db), &space, budget);
    uint64_t added = 0;
    for (int32_t round = 0; round < 3; ++round) {
      for (int32_t a = 0; a < kItems; ++a) {
        if (a % 3 < round) continue;
        count.AddRows(kItems - a - 1);
        ASSERT_TRUE(count
                        .AddExtensions(static_cast<uint32_t>(a),
                                       ranks.data() + a + 1,
                                       ranks.data() + kItems)
                        .ok());
        added += kItems - a - 1;
      }
    }
    std::vector<int32_t> out;
    ASSERT_TRUE(count.Finish(/*min_count=*/2, &out).ok());
    EXPECT_EQ(out, expected);
    const CountStats& stats = count.stats();
    EXPECT_EQ(stats.rows, added);
    EXPECT_LE(stats.peak_bytes, budget);
    EXPECT_LE(peak->Value(), static_cast<int64_t>(budget));
    if (budget == size_t{1} << 20) {
      EXPECT_EQ(stats.peak_bytes, 19900 * sizeof(int64_t));
      EXPECT_EQ(stats.probes, 0u);
      EXPECT_EQ(stats.spilled_runs, 0u);
    } else {
      EXPECT_GE(stats.probes, added);
      EXPECT_GT(stats.spilled_runs, 0u);
      EXPECT_LT(stats.spilled_entries, added);
    }
  }
}

// Every count path hands its keys over in key order. The same random rows
// under a dense budget, a hashed count that never spills (its counters
// outgrow the sort budget, and the count has no budget) and a zero budget
// that spills more than kMergeFanIn runs, so the merge cascades, give
// identical, strictly ascending (parent id, item) rows, equal to a
// brute-force map of the rows.
TEST(ExtensionCountTest, EveryPathEmitsInKeyOrder) {
  constexpr int32_t kItems = 100;  // 4,950 pairs: 39,600 bytes of counters
  std::vector<ItemId> items(kItems);
  for (int32_t rank = 0; rank < kItems; ++rank) items[rank] = 7 + 3 * rank;
  auto level = IndexCandidates(1, C1Keys(items), nullptr);
  ASSERT_TRUE(level.ok()) << level.status().ToString();
  // Each row: a parent and a random ascending subset of the ranks above it.
  Rng rng(20261019);
  std::vector<std::pair<uint32_t, std::vector<int32_t>>> rows;
  std::map<std::pair<int32_t, ItemId>, int64_t> brute;
  for (int i = 0; i < 3000; ++i) {
    const auto parent = static_cast<int32_t>(rng.Uniform(kItems - 1));
    std::vector<int32_t> ranks;
    for (int32_t rank = parent + 1; rank < kItems; ++rank) {
      if (rng.Uniform(4) != 0) continue;
      ranks.push_back(rank);
      ++brute[{parent, items[rank]}];
    }
    rows.emplace_back(static_cast<uint32_t>(parent), std::move(ranks));
  }
  std::vector<int32_t> expected;
  for (const auto& [key, count] : brute) {
    expected.insert(expected.end(),
                    {key.first, key.second, static_cast<int32_t>(count)});
  }
  struct Budget {
    const char* name;
    size_t sort_bytes;
    size_t budget;
  };
  for (const Budget& b : {Budget{"dense", 1 << 20, 1 << 20},
                          Budget{"hashed", 16 << 10, BudgetedCount::kUnbounded},
                          Budget{"spilled", 16 << 10, 0}}) {
    SCOPED_TRACE(b.name);
    DatabaseOptions db_options;
    db_options.sort_memory_bytes = b.sort_bytes;
    Database db(db_options);
    ExtensionCount count(ExecContext::From(&db), &level.value().space,
                         b.budget);
    for (const auto& [parent, ranks] : rows) {
      ASSERT_TRUE(count
                      .AddExtensions(parent, ranks.data(),
                                     ranks.data() + ranks.size())
                      .ok());
    }
    std::vector<int32_t> out;
    ASSERT_TRUE(count.Finish(/*min_count=*/1, &out).ok());
    EXPECT_EQ(out, expected);
    for (size_t at = 3; at < out.size(); at += 3) {
      ASSERT_TRUE((CandidateKey{out[at - 3], out[at - 2]} <
                   CandidateKey{out[at], out[at + 1]}))
          << "row " << at / 3;
    }
    const CountStats& stats = count.stats();
    if (b.budget == 0) {
      EXPECT_GT(stats.spilled_runs, kMergeFanIn);
      EXPECT_GE(stats.merge_passes, 1u);
    } else {
      EXPECT_EQ(stats.spilled_runs, 0u);
      EXPECT_EQ(stats.probes > 0, b.sort_bytes < (1 << 20));
    }
  }
}

// C_1's count, taken with no alphabet known in advance: a dense array over
// the items' span while it passes the dense rule and fits the budget, which
// widens as items arrive below and above it, else a hashed table of (0,
// item) keys that spills within the budget. Every form gives each item
// counted at least min_count times as a (0, item, count) row, in item
// order, and counts every row.
TEST(ItemCountTest, DenseWideningHashedAndSpilledCountsAgree) {
  // 1,000 items reached from the middle out, each item i counted i % 3 + 1
  // times, in transactions of up to 7 ascending items.
  std::vector<ItemId> order;
  for (int32_t step = 0; step < 500; ++step) {
    order.push_back(500 + step);
    order.push_back(499 - step);
  }
  std::vector<std::vector<ItemId>> txns;
  for (int32_t round = 0; round < 3; ++round) {
    for (size_t at = 0; at < order.size(); at += 7) {
      std::vector<ItemId> txn;
      for (size_t i = at; i < std::min(order.size(), at + 7); ++i) {
        if (order[i] % 3 >= round) txn.push_back(order[i]);
      }
      std::sort(txn.begin(), txn.end());
      txns.push_back(txn);
    }
  }
  // The same counts with one item far past the others: a span the dense
  // rule refuses.
  std::vector<std::vector<ItemId>> sparse = txns;
  sparse.push_back({1 << 24});
  const auto expected = [](const std::vector<std::vector<ItemId>>& in,
                           int64_t min_count) {
    std::map<ItemId, int64_t> counts;
    for (const auto& txn : in) {
      for (ItemId item : txn) ++counts[item];
    }
    std::vector<int32_t> rows;
    for (const auto& [item, count] : counts) {
      if (count >= min_count) {
        rows.insert(rows.end(), {0, item, static_cast<int32_t>(count)});
      }
    }
    return rows;
  };
  enum class Form { kDense, kHashed, kSpilled };
  const struct {
    const char* name;
    const std::vector<std::vector<ItemId>>* txns;
    size_t budget;
    Form form;
  } cases[] = {
      {"dense", &txns, size_t{1} << 20, Form::kDense},
      {"span past the dense rule", &sparse, size_t{1} << 20, Form::kHashed},
      {"4 KiB budget", &txns, size_t{4} << 10, Form::kSpilled},
  };
  obs::Gauge* peak =
      obs::MetricsRegistry::Global()->GetGauge("setm_mem_count_bytes");
  for (const auto& c : cases) {
    for (int64_t min_count : {int64_t{1}, int64_t{3}}) {
      SCOPED_TRACE(std::string(c.name) +
                   " min_count=" + std::to_string(min_count));
      DatabaseOptions db_options;
      db_options.sort_memory_bytes = c.budget;
      Database db(db_options);
      peak->Set(0);
      ItemCount count(ExecContext::From(&db), c.budget, /*expected_rows=*/0);
      uint64_t rows = 0;
      for (const auto& txn : *c.txns) {
        ASSERT_TRUE(count.Add(txn.data(), txn.size()).ok());
        rows += txn.size();
      }
      std::vector<int32_t> out;
      ASSERT_TRUE(count.Finish(min_count, &out).ok());
      EXPECT_EQ(out, expected(*c.txns, min_count));
      const CountStats& stats = count.stats();
      EXPECT_EQ(stats.rows, rows);
      EXPECT_LE(stats.peak_bytes, c.budget);
      EXPECT_EQ(peak->Value(), static_cast<int64_t>(stats.peak_bytes));
      EXPECT_EQ(stats.probes == 0, c.form == Form::kDense);
      EXPECT_EQ(stats.spilled_runs > 0, c.form == Form::kSpilled);
      if (c.form == Form::kDense) {
        // The widened array stays within a quarter of the items' span.
        EXPECT_LE(stats.peak_bytes, 1250 * sizeof(int64_t));
      }
    }
  }
}

// The dense layout fills its budget: at the default 1 MiB, a table takes
// over 30,000 distinct 3- or 4-itemsets before TryAdd refuses one, and
// stays within the budget. Entry ids are 32 bits, so no budget buys more
// than 2^32 - 1 entries.
TEST(ItemsetCountsTest, FillsItsBudget) {
  constexpr size_t kBudget = 1 << 20;
  for (size_t k : {size_t{3}, size_t{4}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ItemsetCounts table(k);
    std::vector<ItemId> items(k);
    size_t accepted = 0;
    for (;; ++accepted) {
      for (size_t i = 0; i < k; ++i) {
        items[i] = static_cast<ItemId>(accepted * k + i);
      }
      if (!table.TryAdd(items.data(), 1, kBudget)) break;
    }
    EXPECT_GE(accepted, 30000u);
    EXPECT_EQ(accepted, ItemsetCounts::MaxEntriesWithin(k, kBudget));
    EXPECT_EQ(table.size(), accepted);
    EXPECT_LE(table.bytes(), kBudget);
    // A refused itemset leaves the table as it was; a present one is
    // still counted.
    EXPECT_EQ(table.Count(items.data()), 0);
    std::iota(items.begin(), items.end(), 0);  // the first itemset added
    EXPECT_TRUE(table.TryAdd(items.data(), 2, kBudget));
    EXPECT_EQ(table.Count(items.data()), 3);
  }
  EXPECT_EQ(ItemsetCounts::MaxEntriesWithin(1, SIZE_MAX), size_t{UINT32_MAX});
  EXPECT_EQ(ItemsetCounts::MaxEntriesWithin(8, SIZE_MAX), size_t{UINT32_MAX});
}

// Entries come back in item order from ForEachSorted, with their counts,
// across growth and Clear().
TEST(ItemsetCountsTest, OrdersAndCountsAcrossGrowth) {
  ItemsetCounts table(2);
  Rng rng(5);
  std::map<std::vector<ItemId>, int64_t> want;
  for (int i = 0; i < 5000; ++i) {
    std::vector<ItemId> items = {static_cast<ItemId>(rng.Uniform(100)),
                                 static_cast<ItemId>(rng.Uniform(100))};
    want[items] += 1 + i % 3;
    table.Add(items.data(), 1 + i % 3);
  }
  std::map<std::vector<ItemId>, int64_t> got;
  std::vector<std::vector<ItemId>> sorted;
  table.ForEachSorted([&](const ItemId* items, int64_t count) {
    sorted.emplace_back(items, items + 2);
    got[sorted.back()] = count;
  });
  EXPECT_EQ(got, want);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(sorted.size(), want.size());
  std::vector<std::vector<ItemId>> inserted;
  for (const auto& entry : want) inserted.push_back(entry.first);

  const size_t bytes = table.bytes();
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bytes(), bytes);
  EXPECT_EQ(table.Count(inserted[0].data()), 0);
  table.Add(inserted[0].data(), 4);
  EXPECT_EQ(table.Count(inserted[0].data()), 4);
}

// --------------------------------------------------------------------------
// One pass per iteration: the pass that writes R_k counts R'_{k+1}.
// --------------------------------------------------------------------------

// Each iteration k >= 2 reads R_{k-1} and R_1 once, in the pass that
// writes R_k and counts R'_{k+1}; iteration 1 only writes. Over a pool far
// smaller than R_1, so no input stays cached between passes, a mine's page
// reads stay within one scan of both inputs per iteration, with no slack
// term: pass 2 joins R_1 with itself and reads it once for both inputs, so
// the bound is pages(R_1) + Σ_{k≥3} (pages(R_{k-1}) + pages(R_1)). The
// count does not spill at this size, so the mine hands out exactly R_k's
// packed pages, as fresh allocations or as ids R_{k-1} released in the
// pass that read it last, and writes each of them at most once: a page is
// written whole, straight from the one-page buffer it was filled in, and
// never fetched back.
TEST(SetmOnePassTest, EachIterationReadsItsInputsOnce) {
  QuestOptions gen;
  gen.seed = 3;
  gen.num_transactions = 12000;
  gen.avg_transaction_size = 8;
  gen.num_items = 100;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.02;
  DatabaseOptions db_options;
  db_options.pool_frames = 8;
  Database db(db_options);
  auto result =
      SetmMiner(&db, SetmOptions{TableBacking::kHeap}).Mine(txns, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& iterations = result.value().iterations;
  const IoStats& io = result.value().io;
  ASSERT_GE(iterations.size(), 4u);
  ASSERT_GT(iterations[0].r_pages, 4 * db_options.pool_frames);
  uint64_t r_pages = 0;
  uint64_t one_scan = iterations[0].r_pages;
  for (size_t i = 0; i < iterations.size(); ++i) {
    r_pages += iterations[i].r_pages;
    if (i >= 2) one_scan += iterations[i - 1].r_pages + iterations[0].r_pages;
  }
  EXPECT_EQ(io.pages_allocated + io.pages_reused, r_pages);
  EXPECT_GT(io.pages_reused, 0u);
  EXPECT_LE(io.page_writes, io.pages_allocated + io.pages_reused);
  EXPECT_GT(io.page_reads, 0u);
  EXPECT_LE(io.page_reads, one_scan);
}

// Quest data of the repo benchmark's mine_heap shape: 5,000 transactions
// of ~10 of 400 items, 60 patterns.
TransactionDb MineHeapShapeTxns() {
  QuestOptions gen;
  gen.seed = 1;
  gen.num_transactions = 5000;
  gen.avg_transaction_size = 10;
  gen.avg_pattern_size = 4;
  gen.num_items = 400;
  gen.num_patterns = 60;
  return QuestGenerator(gen).Generate();
}

// The count table fills its budget: a mine of mine_heap's shape counts
// every level within the default 1 MiB without spilling a run.
TEST(SetmOnePassTest, MineHeapShapeCountsWithoutSpilling) {
  TransactionDb txns = MineHeapShapeTxns();
  MiningOptions options;
  options.min_support = 0.02;
  Database db;  // default 1 MiB sort budget
  auto* registry = obs::MetricsRegistry::Global();
  obs::Counter* spilled = registry->GetCounter("setm_count_spilled_runs_total");
  obs::Gauge* peak = registry->GetGauge("setm_mem_count_bytes");
  const uint64_t spilled_before = spilled->Value();
  peak->Set(0);
  SetmOptions knobs{TableBacking::kHeap};
  knobs.count_method = CountMethod::kSortMerge;
  auto result = SetmMiner(&db, knobs).Mine(txns, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result.value().iterations.size(), 4u);
  EXPECT_EQ(spilled->Value() - spilled_before, 0u);
  EXPECT_LE(peak->Value(),
            static_cast<int64_t>(DatabaseOptions{}.sort_memory_bytes));
}

// Counting in candidate-id space hashes nothing while the counts are
// dense: pass k reads a left row's C_{k-1} id from the row itself (R_k is
// (trans_id, C_k id)) or, for k = 2, ranks its item in C_1, C_k membership
// is a sorted merge, and the counts of mine_heap's shape fit the default
// budget as dense arrays. So a mine makes no itemset-key hash probe under
// either count method. Probing a hash index of C_{k-1} once per R_{k-1}
// row took 386,903 here; hashing each candidate row's k items twice, once
// to filter it and once to count its extensions, ~2.6 M.
TEST(SetmOnePassTest, DenseCountsMakeNoItemsetProbes) {
  TransactionDb txns = MineHeapShapeTxns();
  MiningOptions options;
  options.min_support = 0.02;
  auto* registry = obs::MetricsRegistry::Global();
  obs::Counter* probes = registry->GetCounter("setm_itemset_probes_total");
  for (CountMethod method : {CountMethod::kSortMerge, CountMethod::kHash}) {
    SCOPED_TRACE(method == CountMethod::kHash ? "hash" : "sort-merge");
    Database db;
    SetmOptions knobs{TableBacking::kHeap};
    knobs.count_method = method;
    const uint64_t probes_before = probes->Value();
    auto result = SetmMiner(&db, knobs).Mine(txns, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GE(result.value().iterations.size(), 4u);
    EXPECT_EQ(probes->Value() - probes_before, 0u);
  }
}

// The page gate of the repo benchmark's mine_heap, on its data and
// database: a file database at the default 1 MiB pool and sort budget, one
// serial kHeap mine of SALES, the first on a freshly loaded database. Every
// R_k is stored as groups, one per transaction, so its pages are the
// encoder's page count of its groups at every k: R_1 takes 17 pages and
// Σ_{k≥2} ||R_k|| 118, the largest pass holding R_1, R_2 and R_3 in 79
// frames, and the mine moves no page. The gate allows 32 (an eighth of the
// pool) for data whose passes come near the pool's size.
constexpr uint64_t kMineHeapPageBudget = 32;

TEST(SetmOnePassTest, MineHeapShapeStaysWithinItsPageBudget) {
  const std::string path = testing::TempDir() + "/setm_mine_heap_pages.db";
  const auto remove_files = [&path] {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  };
  remove_files();  // a crashed earlier run may have left them
  TransactionDb txns = MineHeapShapeTxns();
  MiningOptions options;
  options.min_support = 0.02;
  {
    DatabaseOptions db_options;
    db_options.file_path = path;
    auto db_or = Database::Open(db_options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Database* db = db_or.value().get();
    auto sales = LoadSalesTable(db, "sales", txns, TableBacking::kHeap);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    SetmOptions knobs{TableBacking::kHeap};
    knobs.count_method = CountMethod::kSortMerge;
    auto result = SetmMiner(db, knobs).MineTable(*sales.value(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto& iterations = result.value().iterations;
    ASSERT_GE(iterations.size(), 4u);
    uint64_t r_pages = 0;
    uint64_t encoded = 0;
    for (size_t i = 1; i < iterations.size(); ++i) {
      r_pages += iterations[i].r_pages;
      encoded += ReferenceRPages(txns, result.value().itemsets, i + 1);
    }
    EXPECT_EQ(r_pages, encoded);
    EXPECT_EQ(iterations[0].r_pages,
              ReferenceRPages(txns, result.value().itemsets, 1));
    const IoStats& io = result.value().io;
    EXPECT_LE(io.page_reads + io.page_writes, kMineHeapPageBudget)
        << io.page_reads << " reads, " << io.page_writes << " writes";
  }
  remove_files();
}

// Reads, at each finished iteration, the database's page reads and writes
// since the previous one.
class PageDeltas : public MiningObserver {
 public:
  explicit PageDeltas(const Database* db) : db_(db) { Now(&reads_, &writes_); }

  bool OnIteration(const IterationStats&) override {
    uint64_t reads, writes;
    Now(&reads, &writes);
    deltas.push_back({reads - reads_, writes - writes_});
    reads_ = reads;
    writes_ = writes;
    return true;
  }

  /// (reads, writes) of each iteration, in k order.
  std::vector<std::pair<uint64_t, uint64_t>> deltas;

 private:
  void Now(uint64_t* reads, uint64_t* writes) const {
    *reads = db_->io_stats().page_reads;
    *writes = db_->io_stats().page_writes;
  }

  const Database* db_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

// Each pass's page traffic follows from the relation sizes alone, once R_1
// fits the pool's retained share: R_1 holds ||R_1|| frames, and the other
// F = frames - ||R_1|| hold the head of the R_{k-1} pass k reads, then as
// much of R_k as the pages pass k takes from the pool make room for. So
// pass k >= 3 reads max(0, ||R_{k-1}|| - F) pages, pass 2 reads none (R_1
// is resident), and pass k >= 2 writes max(0, ||R_k|| - F). Mined on a
// committed database, whose SALES pages are clean and give way to R_k. The
// pools are small enough for R_2 and R_3 (33 and 29 pages beside R_1's 17)
// to outgrow F; from ~80 frames up every pass fits.
TEST(SetmOnePassTest, EachPassMovesOnlyWhatThePoolCannotHold) {
  const std::string path = testing::TempDir() + "/setm_exact_pages.db";
  const auto remove_files = [&path] {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  };
  TransactionDb txns = MineHeapShapeTxns();
  for (size_t frames : {36, 40, 48}) {
    SCOPED_TRACE(std::to_string(frames) + " frames");
    remove_files();
    DatabaseOptions db_options;
    db_options.file_path = path;
    db_options.pool_frames = frames;
    auto db_or = Database::Open(db_options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Database* db = db_or.value().get();
    auto sales = LoadSalesTable(db, "sales", txns, TableBacking::kHeap);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    ASSERT_TRUE(db->Commit().ok());
    PageDeltas deltas(db);
    MiningOptions options;
    options.min_support = 0.02;
    options.observer = &deltas;
    auto result = SetmMiner(db, SetmOptions{TableBacking::kHeap})
                      .MineTable(*sales.value(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto& iterations = result.value().iterations;
    ASSERT_GE(iterations.size(), 4u);
    ASSERT_EQ(deltas.deltas.size(), iterations.size());
    const uint64_t r1 = iterations[0].r_pages;
    ASSERT_LE(r1, frames / BufferPool::kRetainedShareDivisor);
    const uint64_t free_frames = frames - r1;
    const auto beyond = [free_frames](uint64_t relation_pages) {
      return relation_pages > free_frames ? relation_pages - free_frames : 0;
    };
    uint64_t moved = 0;
    for (size_t i = 1; i < iterations.size(); ++i) {
      SCOPED_TRACE("k = " + std::to_string(iterations[i].k));
      const uint64_t reads = i == 1 ? 0 : beyond(iterations[i - 1].r_pages);
      const auto [read, written] = deltas.deltas[i];
      EXPECT_EQ(read, reads);
      EXPECT_EQ(written, beyond(iterations[i].r_pages));
      moved += read + written;
    }
    // Some pass moves pages: the closed form is not checked on a pool that
    // holds the whole mine.
    EXPECT_GT(moved, 0u);
    ASSERT_TRUE(db->Close().ok());
  }
  remove_files();
}

// With max_pattern_length = 2 the pass that writes R_2 counts nothing:
// the count operator sees exactly |R'_1| + |R'_2| rows.
TEST(SetmOnePassTest, NoCountPastMaxPatternLength) {
  QuestOptions gen;
  gen.seed = 8;
  gen.num_transactions = 400;
  gen.avg_transaction_size = 6;
  gen.num_items = 30;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.02;
  options.max_pattern_length = 2;
  obs::Counter* rows =
      obs::MetricsRegistry::Global()->GetCounter("setm_count_rows_total");
  for (size_t threads : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Database db;
    SetmOptions knobs;
    knobs.num_threads = threads;
    const uint64_t before = rows->Value();
    auto result = SetmMiner(&db, knobs).Mine(txns, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto& iterations = result.value().iterations;
    ASSERT_EQ(iterations.size(), 2u);
    ASSERT_GT(iterations[1].r_rows, 0u);  // R'_3 would not be empty
    EXPECT_EQ(rows->Value() - before,
              iterations[0].r_prime_rows + iterations[1].r_prime_rows);
  }
}

// The fused count under the options that change its inputs: filter_r1
// (R'_2 pairs the filtered R_1) and max_pattern_length (the last pass
// counts nothing), serial and threaded, with each form of the count: dense
// arrays (the default budget), a hashed table that does not spill (kHash
// under a sort budget too small for any dense array) and one that spills
// (kSortMerge under 4 KiB, within which it stays), all equal to the
// oracle.
TEST(SetmOnePassTest, FilterR1AndMaxLengthMatchTheOracle) {
  QuestOptions gen;
  gen.seed = 12;
  gen.num_transactions = 400;
  gen.avg_transaction_size = 6;
  gen.num_items = 30;
  TransactionDb txns = QuestGenerator(gen).Generate();
  enum class Count { kDense, kHashed, kSpilled };
  auto* registry = obs::MetricsRegistry::Global();
  obs::Counter* spilled = registry->GetCounter("setm_count_spilled_runs_total");
  obs::Counter* probes = registry->GetCounter("setm_itemset_probes_total");
  obs::Gauge* peak = registry->GetGauge("setm_mem_count_bytes");
  for (Count count : {Count::kDense, Count::kHashed, Count::kSpilled}) {
    for (bool filter_r1 : {false, true}) {
      for (size_t max_length : {size_t{0}, size_t{1}, size_t{2}, size_t{3}}) {
        MiningOptions options;
        options.min_support = 0.02;
        options.filter_r1 = filter_r1;
        options.max_pattern_length = max_length;
        auto oracle = BruteForceMiner().Mine(txns, options);
        ASSERT_TRUE(oracle.ok());
        for (size_t threads : {size_t{1}, size_t{3}}) {
          SCOPED_TRACE("count=" + std::to_string(static_cast<int>(count)) +
                       " filter_r1=" + std::to_string(filter_r1) +
                       " max_length=" + std::to_string(max_length) +
                       " threads=" + std::to_string(threads));
          DatabaseOptions db_options;
          SetmOptions knobs{TableBacking::kHeap};
          knobs.num_threads = threads;
          if (count == Count::kHashed) {
            db_options.sort_memory_bytes = 64;
            knobs.count_method = CountMethod::kHash;
          } else if (count == Count::kSpilled) {
            db_options.sort_memory_bytes = 4 << 10;
          }
          Database db(db_options);
          const uint64_t spilled_before = spilled->Value();
          const uint64_t probes_before = probes->Value();
          peak->Set(0);
          auto result = SetmMiner(&db, knobs).Mine(txns, options);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_TRUE(result.value().itemsets == oracle.value().itemsets);
          const uint64_t runs = spilled->Value() - spilled_before;
          switch (count) {
            case Count::kDense:
              EXPECT_EQ(runs, 0u);
              if (max_length == 1) {
                EXPECT_EQ(probes->Value(), probes_before);
              }
              break;
            case Count::kHashed:
              EXPECT_EQ(runs, 0u);
              // C_1's count alone hashes every R_1 row.
              EXPECT_GE(probes->Value() - probes_before,
                        result.value().iterations[0].r_rows);
              EXPECT_GT(peak->Value(), 64);
              break;
            case Count::kSpilled:
              // R'_2's triangle over C_1's 30 items, 435 counters (3,480
              // bytes), fits 4 KiB; C_2 x C_1 does not.
              if (max_length == 0 || max_length >= 3) {
                EXPECT_GT(runs, 0u);
              }
              EXPECT_LE(peak->Value(), 4 << 10);
              break;
          }
        }
      }
    }
  }
}

// A SALES table may repeat a (trans_id, item) row; setm counts every row,
// so the repeated item counts twice, but an itemset never holds an item
// twice: a row's extensions are the items greater than its last one, in
// the fused count as in the join. Four transactions {1, 2, 2, 3} and one
// {1, 3}: R'_2 = 4 x {12, 12, 13, 23, 23} + {13}, R'_3 = 4 x {123, 123},
// R'_4 is empty. At a minsupport of 9, which no item reaches, C_1 is empty:
// without filter_r1 pass 2 still joins the whole R_1, so |R'_2| counts its
// 21 pairs, while filter_r1 empties R_1 and the mine stops after iteration
// 1. Under kHeap the repeated ids, deltas of 0 in R_1's and R_k's groups,
// go through pages of the pool.
TEST(SetmOnePassTest, RepeatedSalesRowsNeverRepeatAnItem) {
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    for (int64_t min_support : {2, 9}) {
      for (bool filter_r1 : {false, true}) {
        for (size_t threads : {size_t{1}, size_t{2}, size_t{3}}) {
          SCOPED_TRACE("min_support=" + std::to_string(min_support) +
                       " filter_r1=" + std::to_string(filter_r1) +
                       " threads=" + std::to_string(threads) + " heap=" +
                       std::to_string(backing == TableBacking::kHeap));
          Database db;
          auto sales = db.catalog()->CreateTable(
              "sales", SetmMiner::SalesSchema(), TableBacking::kMemory);
          ASSERT_TRUE(sales.ok());
          const auto insert = [&](int32_t tid, int32_t item) {
            const Tuple row({Value::Int32(tid), Value::Int32(item)});
            ASSERT_TRUE(sales.value()->Insert(row).ok());
          };
          for (int32_t tid = 1; tid <= 4; ++tid) {
            for (int32_t item : {1, 2, 2, 3}) insert(tid, item);
          }
          insert(5, 1);
          insert(5, 3);
          MiningOptions options;
          options.min_support_count = min_support;
          options.filter_r1 = filter_r1;
          SetmOptions knobs{backing};
          knobs.num_threads = threads;
          auto result =
              SetmMiner(&db, knobs).MineTable(*sales.value(), options);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          const MiningResult& mined = result.value();
          std::vector<uint64_t> r_prime_rows;
          for (const IterationStats& it : mined.iterations) {
            r_prime_rows.push_back(it.r_prime_rows);
          }
          if (min_support == 9) {
            const std::vector<uint64_t> whole_r1 = {18, 21};
            EXPECT_EQ(r_prime_rows, filter_r1 ? std::vector<uint64_t>(1, 18)
                                              : whole_r1);
            EXPECT_EQ(mined.itemsets.TotalPatterns(), 0u);
            continue;
          }
          EXPECT_EQ(r_prime_rows, (std::vector<uint64_t>{18, 21, 8, 0}));
          ASSERT_EQ(mined.itemsets.MaxSize(), 3u);
          EXPECT_EQ(mined.itemsets.OfSize(1).size(), 3u);
          EXPECT_EQ(mined.itemsets.OfSize(2).size(), 3u);
          EXPECT_EQ(mined.itemsets.OfSize(3).size(), 1u);
          EXPECT_EQ(mined.itemsets.CountOf({2}), 8);
          EXPECT_EQ(mined.itemsets.CountOf({1, 2}), 8);
          EXPECT_EQ(mined.itemsets.CountOf({1, 3}), 5);
          EXPECT_EQ(mined.itemsets.CountOf({2, 3}), 8);
          EXPECT_EQ(mined.itemsets.CountOf({1, 2, 3}), 8);
        }
      }
    }
  }
}

// With repeated SALES rows counts are not supports, and a sibling-only
// count would be wrong. Two transactions {1, 2, 2, 3}, one {1} and one {3}
// at a minsupport of 3: {1, 2} and {2, 3} count 4 each and {1, 2, 3}
// counts 4, but {1, 3} counts 2, so {1, 2}'s sibling {1, 3} is not in C_2.
// The intake sees the repeat, so every pass counts each C_1 item above a
// kept row's last one, and {1, 2, 3} is found.
TEST(SetmOnePassTest, RepeatedSalesRowsCountEveryExtension) {
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " heap=" +
                   std::to_string(backing == TableBacking::kHeap));
      Database db;
      auto sales = db.catalog()->CreateTable(
          "sales", SetmMiner::SalesSchema(), TableBacking::kMemory);
      ASSERT_TRUE(sales.ok());
      const auto insert = [&](int32_t tid, int32_t item) {
        const Tuple row({Value::Int32(tid), Value::Int32(item)});
        ASSERT_TRUE(sales.value()->Insert(row).ok());
      };
      for (int32_t tid = 1; tid <= 2; ++tid) {
        for (int32_t item : {1, 2, 2, 3}) insert(tid, item);
      }
      insert(3, 1);
      insert(4, 3);
      MiningOptions options;
      options.min_support_count = 3;
      SetmOptions knobs{backing};
      knobs.num_threads = threads;
      auto result = SetmMiner(&db, knobs).MineTable(*sales.value(), options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const FrequentItemsets& mined = result.value().itemsets;
      EXPECT_EQ(mined.CountOf({1}), 3);
      EXPECT_EQ(mined.CountOf({2}), 4);
      EXPECT_EQ(mined.CountOf({3}), 3);
      EXPECT_EQ(mined.CountOf({1, 2}), 4);
      EXPECT_EQ(mined.CountOf({2, 3}), 4);
      EXPECT_EQ(mined.CountOf({1, 3}), 0);
      EXPECT_EQ(mined.CountOf({1, 2, 3}), 4);
      EXPECT_EQ(mined.TotalPatterns(), 6u);
    }
  }
}

// A lattice count's C_k holds only the lattice's members, so a sibling
// may be missing from it although the extension is a member: here the
// lattice holds {1, 2, 3} with its prefixes and items but not {1, 3}. Its
// passes count each C_1 item above a kept row's last one, and {1, 2, 3}
// is counted.
TEST(SetmOnePassTest, LatticeCountsEveryExtension) {
  TransactionDb txns;
  for (TransactionId tid = 1; tid <= 3; ++tid) txns.push_back({tid, {1, 2, 3}});
  txns.push_back({4, {1, 3}});
  txns.push_back({5, {1, 3}});
  txns.push_back({6, {2, 3}});
  FrequentItemsets lattice;
  for (const std::vector<ItemId>& items :
       std::vector<std::vector<ItemId>>{{1}, {2}, {3}, {1, 2}, {1, 2, 3}}) {
    lattice.Add(items, 1);
  }
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " heap=" +
                   std::to_string(backing == TableBacking::kHeap));
      Database db;
      SetmOptions knobs{backing};
      knobs.num_threads = threads;
      auto result = SetmMiner(&db, knobs, &lattice).Mine(txns, {});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const FrequentItemsets& counted = result.value().itemsets;
      EXPECT_EQ(counted.CountOf({1}), 5);
      EXPECT_EQ(counted.CountOf({2}), 4);
      EXPECT_EQ(counted.CountOf({3}), 6);
      EXPECT_EQ(counted.CountOf({1, 2}), 3);
      EXPECT_EQ(counted.CountOf({1, 2, 3}), 3);
      EXPECT_EQ(counted.TotalPatterns(), 5u);
    }
  }
}


// R'_2 is counted once C_1 is known, over C_1's ranks. Each of 300
// transactions holds up to 3 of 12 common items and 3 items of its own, so
// the 912 distinct items of the slice would make a triangle of 415,416
// counters (3.2 MiB, 48,516 on each of 3 shards), far past a 16 KiB count
// budget, while C_1's 12 items make 66. So under both filter_r1 settings
// R'_2's count is a dense array: a mine that stops at k = 2 spills no run
// and makes no itemset-key hash probe (C_1's count over the 912 items,
// 7.1 KiB, is dense too). Every mine equals the oracle.
TEST(SetmOnePassTest, PairsAreCountedOverC1NotTheSlicesItems) {
  TransactionDb txns;
  for (int32_t t = 0; t < 300; ++t) {
    std::set<ItemId> items = {t % 12, (5 * t + 1) % 12, (7 * t + 3) % 12};
    for (int32_t own = 0; own < 3; ++own) items.insert(1000 + 3 * t + own);
    txns.push_back(Transaction{t, {items.begin(), items.end()}});
  }
  auto* registry = obs::MetricsRegistry::Global();
  obs::Counter* spilled = registry->GetCounter("setm_count_spilled_runs_total");
  obs::Counter* probes = registry->GetCounter("setm_itemset_probes_total");
  for (bool filter_r1 : {false, true}) {
    for (size_t max_length : {size_t{2}, size_t{0}}) {
      MiningOptions options;
      options.min_support_count = 10;
      options.filter_r1 = filter_r1;
      options.max_pattern_length = max_length;
      auto oracle = BruteForceMiner().Mine(txns, options);
      ASSERT_TRUE(oracle.ok());
      ASSERT_EQ(oracle.value().itemsets.OfSize(1).size(), 12u);
      for (size_t threads : {size_t{1}, size_t{3}}) {
        SCOPED_TRACE("filter_r1=" + std::to_string(filter_r1) +
                     " max_length=" + std::to_string(max_length) +
                     " threads=" + std::to_string(threads));
        DatabaseOptions db_options;
        db_options.sort_memory_bytes = 16 << 10;
        Database db(db_options);
        SetmOptions knobs{TableBacking::kHeap};
        knobs.num_threads = threads;
        const uint64_t spilled_before = spilled->Value();
        const uint64_t probes_before = probes->Value();
        auto result = SetmMiner(&db, knobs).Mine(txns, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_TRUE(result.value().itemsets == oracle.value().itemsets);
        if (max_length == 2) {
          EXPECT_EQ(spilled->Value() - spilled_before, 0u);
          EXPECT_EQ(probes->Value() - probes_before, 0u);
        }
      }
    }
  }
}

// With repeated SALES rows setm's row counts are not anti-monotone: in
// {1, 1, 2} the pair {1, 2} counts twice and 2 once. An itemset with an
// item outside C_1 is never frequent, though: no shard counts a larger
// itemset by an item outside C_1, and the coordinator drops such a pair.
// Here 2 (count 2) misses a minsupport of 3 that {1, 2} (count 4) would
// reach.
TEST(SetmOnePassTest, AnItemsetWithAnInfrequentItemIsNeverFrequent) {
  for (bool filter_r1 : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE("filter_r1=" + std::to_string(filter_r1) +
                   " threads=" + std::to_string(threads));
      Database db;
      auto sales = db.catalog()->CreateTable(
          "sales", SetmMiner::SalesSchema(), TableBacking::kMemory);
      ASSERT_TRUE(sales.ok());
      const auto insert = [&](int32_t tid, int32_t item) {
        const Tuple row({Value::Int32(tid), Value::Int32(item)});
        ASSERT_TRUE(sales.value()->Insert(row).ok());
      };
      for (int32_t tid = 1; tid <= 2; ++tid) {
        for (int32_t item : {1, 1, 2, 3}) insert(tid, item);
      }
      for (int32_t tid = 3; tid <= 4; ++tid) {
        insert(tid, 1);
        insert(tid, 3);
      }
      MiningOptions options;
      options.min_support_count = 3;
      options.filter_r1 = filter_r1;
      SetmOptions knobs;
      knobs.num_threads = threads;
      auto result = SetmMiner(&db, knobs).MineTable(*sales.value(), options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const FrequentItemsets& mined = result.value().itemsets;
      EXPECT_EQ(mined.CountOf({1}), 6);
      EXPECT_EQ(mined.CountOf({3}), 4);
      EXPECT_EQ(mined.CountOf({1, 3}), 6);
      EXPECT_EQ(mined.TotalPatterns(), 3u);
    }
  }
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
    // R_{k-1} names each left row's itemset by its position among the
    // distinct itemsets, which follows itemset order, as a C_{k-1} id does.
    std::vector<Row> itemsets;
    for (const Row& row : left_rows) {
      itemsets.emplace_back(row.begin() + 1, row.end());
    }
    std::sort(itemsets.begin(), itemsets.end());
    itemsets.erase(std::unique(itemsets.begin(), itemsets.end()),
                   itemsets.end());
    // Groups of (trans_id, ids), a transaction at a time.
    const auto grouped = [&](const std::vector<Row>& rows, auto id_of) {
      auto relation = GroupedRelation::Create(&db, backing, "R");
      for (size_t begin = 0; begin < rows.size();) {
        std::vector<int32_t> ids;
        size_t end = begin;
        for (; end < rows.size() && rows[end][0] == rows[begin][0]; ++end) {
          ids.push_back(id_of(rows[end]));
        }
        EXPECT_TRUE(
            relation->Append(rows[begin][0], ids.data(), ids.size()).ok());
        begin = end;
      }
      EXPECT_TRUE(relation->Finish().ok());
      return relation;
    };
    auto left = grouped(left_rows, [&](const Row& row) {
      return static_cast<int32_t>(
          std::lower_bound(itemsets.begin(), itemsets.end(),
                           Row(row.begin() + 1, row.end())) -
          itemsets.begin());
    });
    auto r1 = grouped(r1_rows, [](const Row& row) { return row[1]; });

    // R'_k's rows, expanded from each left row and its transaction's items
    // above the row's last item.
    std::vector<Row> streamed;
    ASSERT_TRUE(JoinLeftRows(left->Scan().get(), *r1,
                             [&](const IdGroup& p, const ItemId* items,
                                 const ItemId* items_end) {
                               // The transaction's R_1 items, in order.
                               Row transaction;
                               for (const Row& q : r1_rows) {
                                 if (q[0] == p.tid) transaction.push_back(q[1]);
                               }
                               EXPECT_EQ(Row(items, items_end), transaction)
                                   << "trial " << trial;
                               for (const int32_t* id = p.begin; id != p.end;
                                    ++id) {
                                 const Row& itemset = itemsets[*id];
                                 for (const ItemId* it = std::upper_bound(
                                          items, items_end, itemset.back());
                                      it != items_end; ++it) {
                                   Row row{p.tid};
                                   row.insert(row.end(), itemset.begin(),
                                              itemset.end());
                                   row.push_back(*it);
                                   streamed.push_back(std::move(row));
                                 }
                               }
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

// R_k (k >= 2) names each row's itemset by its C_k id, which pass k+1 uses
// to index C_k. An id outside C_{k-1} is refused as Corruption naming the
// relation and the id, after the rows before it were filtered as usual.
TEST(SetmPipelineTest, FilterRefusesAnIdOutsideCkMinus1) {
  // C_1 = {1}, {2}, {3}; C_2 = {1 2}, {1 3}, {2 3}; C_3 = {1 2 3}.
  auto c1 = IndexCandidates(1, C1Keys({1, 2, 3}), nullptr);
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  auto c2 = IndexCandidates(2, {{0, 2}, {0, 3}, {1, 3}}, &c1.value());
  ASSERT_TRUE(c2.ok()) << c2.status().ToString();
  auto c3 = IndexCandidates(3, {{0, 3}}, &c2.value());
  ASSERT_TRUE(c3.ok()) << c3.status().ToString();
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    for (int32_t id : {3, 1000, INT32_MAX, -1, INT32_MIN}) {
      SCOPED_TRACE("id=" + std::to_string(id));
      Database db;
      auto r1 = GroupedRelation::Create(&db, backing, "R_1");
      const std::vector<int32_t> items = {1, 2, 3};
      ASSERT_TRUE(r1->Append(7, items.data(), 3).ok());
      ASSERT_TRUE(r1->Append(8, items.data(), 2).ok());
      ASSERT_TRUE(r1->Finish().ok());
      // (7, {1 2}) is kept as {1 2 3}; then transaction 8 names `id`.
      auto r2 = GroupedRelation::Create(&db, backing, "R_2");
      const int32_t kept = 0;
      ASSERT_TRUE(r2->Append(7, &kept, 1).ok());
      ASSERT_TRUE(r2->Append(8, &id, 1).ok());
      ASSERT_TRUE(r2->Finish().ok());
      auto r3 = GroupedRelation::Create(&db, backing, "R_3");
      ExtensionCount next(ExecContext::From(&db), &c3.value().space,
                          BudgetedCount::kUnbounded);
      const Status status =
          FilterByCk(GroupedRelation::LastScan(std::move(r2)).get(), *r1,
                     &c2.value(), c3.value(), false, r3.get(), &next);
      EXPECT_TRUE(status.IsCorruption()) << status.ToString();
      EXPECT_NE(status.message().find("R_2"), std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find(" id " + std::to_string(id) + ","),
                std::string::npos)
          << status.ToString();
      EXPECT_EQ(r3->num_rows(), 1u);
    }
  }
}

// --------------------------------------------------------------------------
// The SALES intake: one typed scan, filtered and order-checked as it reads.
// --------------------------------------------------------------------------

/// A SALES table holding `txns`' rows in the order given.
Table* LoadRows(Database* db, const TransactionDb& txns,
                TableBacking backing) {
  auto sales = LoadSalesTable(db, "sales", txns, backing);
  EXPECT_TRUE(sales.ok()) << sales.status().ToString();
  return sales.ok() ? sales.value() : nullptr;
}

// A SALES table that is not (INT32, INT32) is refused by every reader,
// naming the column and its type: once mined as garbage (trans_ids 2^32
// and 2^32 + 1 and the item "apple" gave 2 transactions and 1 pattern).
TEST(SetmIntakeTest, SalesOfOtherColumnTypesIsInvalidArgumentOnBothBackings) {
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    SCOPED_TRACE(backing == TableBacking::kHeap ? "heap" : "memory");
    Database db;
    auto sales = db.catalog()->CreateTable(
        "sales",
        Schema({Column{"trans_id", ValueType::kInt64},
                Column{"item", ValueType::kString}}),
        backing);
    ASSERT_TRUE(sales.ok());
    for (int64_t tid : {int64_t{1} << 32, (int64_t{1} << 32) + 1}) {
      ASSERT_TRUE(sales.value()
                      ->Insert(Tuple({Value::Int64(tid),
                                      Value::String("apple")}))
                      .ok());
    }
    MiningOptions options;
    options.min_support_count = 1;
    const auto expect_refused = [](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_NE(status.message().find("'trans_id' is INT64"),
                std::string::npos)
          << status.ToString();
    };
    expect_refused(
        SetmMiner(&db, SetmOptions{backing}).MineTable(*sales.value(), options)
            .status());
    expect_refused(TransactionsFromTable(*sales.value()).status());
  }
  // MemTable::Insert checks arity only: a STRING under an INT32 column.
  Database db;
  auto sales = db.catalog()->CreateTable("sales", SetmMiner::SalesSchema(),
                                         TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  ASSERT_TRUE(sales.value()
                  ->Insert(Tuple({Value::Int32(1), Value::String("apple")}))
                  .ok());
  auto mined = SetmMiner(&db).MineTable(*sales.value(), {});
  EXPECT_EQ(mined.status().code(), StatusCode::kInvalidArgument)
      << mined.status().ToString();
  EXPECT_EQ(TransactionsFromTable(*sales.value()).status().code(),
            StatusCode::kInvalidArgument);
}

/// Transactions as (trans_id, items) pairs, which compare.
using Spelled = std::vector<std::pair<TransactionId, std::vector<ItemId>>>;

Spelled Spell(const TransactionDb& txns) {
  Spelled out;
  for (const Transaction& t : txns) out.emplace_back(t.id, t.items);
  return out;
}

/// The transactions of the intake's R_1s, read back in shard order, each
/// shard's transaction count checked against its R_1.
Spelled ReadBack(std::vector<shard::ShardSlice> slices) {
  Spelled txns;
  for (shard::ShardSlice& slice : slices) {
    std::unique_ptr<GroupCursor> groups =
        GroupedRelation::LastScan(std::move(slice.r1));
    uint64_t transactions = 0;
    IdGroup group;
    while (true) {
      auto more = groups->Next(&group);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !more.value()) break;
      txns.emplace_back(group.tid,
                        std::vector<ItemId>(group.begin, group.end));
      ++transactions;
    }
    EXPECT_EQ(slice.transactions, transactions);
  }
  return txns;
}

// The intake writes R_1 as it reads SALES and buffers rows only past a
// descent. SALES loaded with its transactions in descending trans_id order
// is the fallback: the intake's R_1 is SALES sorted, and it mines what the
// oracle mines, serial and threaded, on both backings.
TEST(SetmIntakeTest, DescendingSalesMinesLikeTheOracle) {
  QuestOptions gen;
  gen.num_transactions = 300;
  gen.avg_transaction_size = 5;
  gen.num_items = 25;
  gen.seed = 77;
  const TransactionDb txns = QuestGenerator(gen).Generate();
  const TransactionDb descending(txns.rbegin(), txns.rend());
  MiningOptions options;
  options.min_support = 0.03;
  auto oracle = BruteForceMiner().Mine(txns, options);
  ASSERT_TRUE(oracle.ok());
  obs::Gauge* buffered =
      obs::MetricsRegistry::Global()->GetGauge("setm_mem_intake_bytes");
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    for (const TransactionDb* order : {&txns, &descending}) {
      Database db;
      Table* sales = LoadRows(&db, *order, backing);
      ASSERT_NE(sales, nullptr);
      buffered->Set(0);
      shard::ShardRunOptions run;
      run.storage = backing;
      shard::SalesIntake intake(ExecContext::From(&db), run, 1,
                                sales->num_rows());
      ASSERT_TRUE(shard::ExtractRows(*sales, &intake).ok());
      EXPECT_EQ(intake.sales_rows(), sales->num_rows());
      EXPECT_EQ(intake.kept_rows(), sales->num_rows());
      auto slices = intake.Finish();
      ASSERT_TRUE(slices.ok()) << slices.status().ToString();
      EXPECT_EQ(buffered->Value() > 0, order == &descending);
      EXPECT_EQ(ReadBack(std::move(slices).value()), Spell(txns));
      for (size_t threads : {size_t{1}, size_t{3}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " descending=" +
                     std::to_string(order == &descending) + " heap=" +
                     std::to_string(backing == TableBacking::kHeap));
        SetmOptions knobs{backing};
        knobs.num_threads = threads;
        auto mined = SetmMiner(&db, knobs).MineTable(*sales, options);
        ASSERT_TRUE(mined.ok()) << mined.status().ToString();
        EXPECT_TRUE(mined.value().itemsets == oracle.value().itemsets);
      }
    }
  }
}

// A lattice count keeps only the rows of the lattice's items, and its
// item lookup takes memory in proportion to the items: 0 beside INT32_MAX
// is two items, not a 2^31-entry bitmap.
TEST(SetmIntakeTest, LatticeOverZeroAndInt32MaxStaysSmall) {
  const ItemRanks items(std::vector<ItemId>{0, INT32_MAX});
  EXPECT_LE(items.bytes(), 64u);
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    SCOPED_TRACE(backing == TableBacking::kHeap ? "heap" : "memory");
    TransactionDb txns;
    for (TransactionId tid = 1; tid <= 6; ++tid) {
      std::vector<ItemId> basket = {0, 7};
      if (tid % 2 == 0) basket.push_back(INT32_MAX);
      txns.push_back({tid, basket});
    }
    txns.push_back({7, {7, INT32_MAX}});
    Database db;
    Table* sales = LoadRows(&db, txns, backing);
    ASSERT_NE(sales, nullptr);
    // 17 rows; those past trans_id 6 and those of item 7 are dropped.
    shard::ShardRunOptions run;
    run.storage = backing;
    shard::SalesIntake intake(ExecContext::From(&db), run, 1,
                              sales->num_rows(), 6, items);
    ASSERT_TRUE(shard::ExtractRows(*sales, &intake).ok());
    EXPECT_EQ(intake.sales_rows(), 17u);
    EXPECT_EQ(intake.kept_rows(), 9u);
    auto slices = intake.Finish();
    ASSERT_TRUE(slices.ok()) << slices.status().ToString();
    TransactionDb kept;
    for (TransactionId tid = 1; tid <= 6; ++tid) {
      kept.push_back({tid, tid % 2 == 0 ? std::vector<ItemId>{0, INT32_MAX}
                                        : std::vector<ItemId>{0}});
    }
    EXPECT_EQ(ReadBack(std::move(slices).value()), Spell(kept));

    FrequentItemsets lattice;
    lattice.Add({0}, 1);
    lattice.Add({INT32_MAX}, 1);
    lattice.Add({0, INT32_MAX}, 1);
    obs::TraceSpan span("count");
    auto counted = SetmMiner(&db, SetmOptions{backing}, &lattice, &span)
                       .MineTable(*sales, {}, 6);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    EXPECT_EQ(counted.value().itemsets.TotalPatterns(), 3u);
    EXPECT_EQ(counted.value().itemsets.CountOf({0}), 6);
    EXPECT_EQ(counted.value().itemsets.CountOf({INT32_MAX}), 3);
    EXPECT_EQ(counted.value().itemsets.CountOf({0, INT32_MAX}), 3);
    const auto& counts = span.counts();
    EXPECT_NE(std::find(counts.begin(), counts.end(),
                        std::make_pair(std::string("sales_rows"),
                                       uint64_t{17})),
              counts.end());
    EXPECT_NE(std::find(counts.begin(), counts.end(),
                        std::make_pair(std::string("kept_rows"), uint64_t{9})),
              counts.end());
  }
}

/// Same k, |R'_k|, |R_k|, R_k bytes and |C_k| at every iteration: the
/// sums over shards, whatever the cut.
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

/// A memory SALES table of `rows`, (trans_id, item), in the order given.
using SalesRows = std::vector<std::pair<TransactionId, ItemId>>;
Table* LoadPairs(Database* db, const SalesRows& rows) {
  auto sales = db->catalog()->CreateTable("sales", SetmMiner::SalesSchema(),
                                          TableBacking::kMemory);
  EXPECT_TRUE(sales.ok()) << sales.status().ToString();
  if (!sales.ok()) return nullptr;
  for (const auto& [tid, item] : rows) {
    EXPECT_TRUE(
        sales.value()->Insert(Tuple({Value::Int32(tid), Value::Int32(item)}))
            .ok());
  }
  return sales.value();
}

/// Mines `sales` (MineTable, up to `max_tid`) and, when given, `txns`
/// (Mine), the same SALES, at 1 to 4 threads with R_1 in memory and in the
/// pool. Each mine finds `want` and reports the one-thread MineTable's
/// iteration stats.
void ExpectThreadSweep(const Table& sales, const TransactionDb* txns,
                       const MiningOptions& options,
                       const FrequentItemsets& want,
                       const FrequentItemsets* lattice = nullptr,
                       TransactionId max_tid = INT32_MAX,
                       uint64_t max_tid_rows = 0) {
  Database db;
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    std::optional<MiningResult> serial;
    for (size_t threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " heap=" +
                   std::to_string(backing == TableBacking::kHeap));
      SetmOptions knobs{backing};
      knobs.num_threads = threads;
      SetmMiner miner(&db, knobs, lattice);
      auto table = miner.MineTable(sales, options, max_tid, max_tid_rows);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      EXPECT_TRUE(table.value().itemsets == want);
      if (!serial.has_value()) serial = table.value();
      ExpectSameIterations(table.value(), *serial);
      EXPECT_EQ(table.value().sales_rows, serial->sales_rows);
      EXPECT_EQ(table.value().kept_rows, serial->kept_rows);
      if (txns == nullptr) continue;
      auto mined = miner.Mine(*txns, options);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      EXPECT_TRUE(mined.value().itemsets == want);
      ExpectSameIterations(mined.value(), *serial);
    }
  }
}

/// SALES rows of `txns`, in their order.
SalesRows RowsOf(const TransactionDb& txns) {
  SalesRows rows;
  for (const Transaction& t : txns) {
    for (ItemId item : t.items) rows.emplace_back(t.id, item);
  }
  return rows;
}

TransactionDb ThreadedIntakeTxns() {
  QuestOptions gen;
  gen.seed = 44;
  gen.num_transactions = 240;
  gen.avg_transaction_size = 6;
  gen.num_items = 40;
  gen.num_patterns = 10;
  return QuestGenerator(gen).Generate();
}

// A threaded mine reads SALES on its workers, one intake per contiguous
// range, cut where a new trans_id starts. A table's row cuts fall inside
// transactions and move past them; a TransactionDb that spells each
// transaction as two entries of one trans_id is cut only between ids.
// Either mines what the oracle mines.
TEST(SetmThreadedIntakeTest, TransactionsStraddlingACutStayWhole) {
  const TransactionDb txns = ThreadedIntakeTxns();
  MiningOptions options;
  options.min_support = 0.03;
  auto oracle = BruteForceMiner().Mine(txns, options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_GE(oracle.value().itemsets.MaxSize(), 3u);
  TransactionDb halves;
  for (const Transaction& t : txns) {
    const auto middle =
        t.items.begin() + static_cast<std::ptrdiff_t>(t.items.size() / 2);
    halves.push_back({t.id, std::vector<ItemId>(t.items.begin(), middle)});
    halves.push_back({t.id, std::vector<ItemId>(middle, t.items.end())});
  }
  Database db;
  Table* sales = LoadPairs(&db, RowsOf(txns));
  ASSERT_NE(sales, nullptr);
  ExpectThreadSweep(*sales, &halves, options, oracle.value().itemsets);
}

// Ranges each ascending but descending from one to the next (the
// transactions' quarters loaded last first), and a transaction whose rows
// open and close SALES: some range's largest trans_id is not below the
// next range's smallest, so the mine reads SALES again as one intake, which
// buffers and sorts it.
TEST(SetmThreadedIntakeTest, SalesDescendingAcrossRangesFallsBack) {
  const TransactionDb txns = ThreadedIntakeTxns();
  MiningOptions options;
  options.min_support = 0.03;
  auto oracle = BruteForceMiner().Mine(txns, options);
  ASSERT_TRUE(oracle.ok());
  TransactionDb quarters;
  for (size_t q = 4; q-- > 0;) {
    quarters.insert(quarters.end(),
                    txns.begin() + static_cast<std::ptrdiff_t>(
                                       q * txns.size() / 4),
                    txns.begin() + static_cast<std::ptrdiff_t>(
                                       (q + 1) * txns.size() / 4));
  }
  {
    Database db;
    Table* sales = LoadPairs(&db, RowsOf(quarters));
    ASSERT_NE(sales, nullptr);
    ExpectThreadSweep(*sales, &quarters, options, oracle.value().itemsets);
  }
  SalesRows split = RowsOf(txns);
  std::rotate(split.begin(), split.begin() + 1, split.end());
  Database db;
  Table* sales = LoadPairs(&db, split);
  ASSERT_NE(sales, nullptr);
  ExpectThreadSweep(*sales, nullptr, options, oracle.value().itemsets);
}

// A mine up to a max_tid watermark cuts its ranges from the rows at or
// below it; the last range reads on through the newer rows and drops them.
TEST(SetmThreadedIntakeTest, MaxTidWatermarkMinesTheOldRows) {
  const TransactionDb txns = ThreadedIntakeTxns();
  const TransactionDb old(txns.begin(), txns.begin() + 150);
  const TransactionId watermark = old.back().id;
  MiningOptions options;
  options.min_support = 0.03;
  auto oracle = BruteForceMiner().Mine(old, options);
  ASSERT_TRUE(oracle.ok());
  const SalesRows rows = RowsOf(txns);
  const uint64_t old_rows = RowsOf(old).size();
  ASSERT_LT(old_rows, rows.size());
  Database db;
  Table* sales = LoadPairs(&db, rows);
  ASSERT_NE(sales, nullptr);
  ExpectThreadSweep(*sales, nullptr, options, oracle.value().itemsets,
                    nullptr, watermark, old_rows);
  // The same watermark with the shards cut from every row.
  ExpectThreadSweep(*sales, nullptr, options, oracle.value().itemsets,
                    nullptr, watermark);
}

// A lattice count keeps only the lattice's items, here none of the middle
// transactions' rows: at 3 and 4 threads a middle range keeps nothing, and
// its empty shard is dropped. The counts are the oracle's.
TEST(SetmThreadedIntakeTest, LatticeCountLeavingARangeEmpty) {
  TransactionDb txns;
  TransactionId tid = 0;
  for (int i = 0; i < 10; ++i) txns.push_back({++tid, {1, 2, 3}});
  for (int i = 0; i < 50; ++i) txns.push_back({++tid, {5, 6}});
  for (int i = 0; i < 10; ++i) txns.push_back({++tid, {1, 2}});
  MiningOptions all;
  all.min_support_count = 1;
  auto oracle = BruteForceMiner().Mine(txns, all);
  ASSERT_TRUE(oracle.ok());
  FrequentItemsets lattice;
  FrequentItemsets want;
  for (const std::vector<ItemId>& items :
       std::vector<std::vector<ItemId>>{
           {1}, {2}, {3}, {9}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}}) {
    lattice.Add(items, 1);
    const int64_t count = oracle.value().itemsets.CountOf(items);
    if (count > 0) want.Add(items, count);
  }
  EXPECT_EQ(want.CountOf({1, 2}), 20);
  EXPECT_EQ(want.CountOf({1, 2, 3}), 10);
  Database db;
  Table* sales = LoadPairs(&db, RowsOf(txns));
  ASSERT_NE(sales, nullptr);
  ExpectThreadSweep(*sales, &txns, {}, want, &lattice);
}

// A (trans_id, item) row repeated in one range turns sibling-only counts
// off in every shard. Transaction 1 is {1, 2, 2, 3} (in the TransactionDb,
// entries {1, 2, 3} and {2} of one trans_id), 2 and 3 are {1, 2, 3}, 4 is
// {1} and 5 is {3}; at a minsupport of 4, {1, 3} counts 3 and misses C_2,
// while {1, 2, 3} counts 2 + 1 + 1. Transactions 2 and 3 repeat nothing,
// but their shards must count {1, 2} extended by 3, which is no sibling.
TEST(SetmThreadedIntakeTest, RepeatedRowInOneRangeCountsEveryExtension) {
  const TransactionDb txns = {{1, {1, 2, 3}}, {1, {2}},    {2, {1, 2, 3}},
                              {3, {1, 2, 3}}, {4, {1}},    {5, {3}}};
  MiningOptions options;
  options.min_support_count = 4;
  FrequentItemsets want;
  for (const std::vector<ItemId>& items : std::vector<std::vector<ItemId>>{
           {1}, {2}, {3}, {1, 2}, {2, 3}, {1, 2, 3}}) {
    want.Add(items, 4);
  }
  Database db;
  Table* sales = LoadPairs(&db, RowsOf(txns));
  ASSERT_NE(sales, nullptr);
  ExpectThreadSweep(*sales, &txns, options, want);
}

/// The per-iteration stats a mine of `txns` must report, from its frequent
/// itemsets: |R'_k| (R'_2 pairs every R_1 item, and R'_k for k >= 3
/// extends each (k-1)-itemset a transaction holds by each of its items
/// above the itemset's last one), |R_k| (the k-itemsets each transaction
/// holds) and |C_k|, up to the first empty level.
std::vector<IterationStats> ReferenceIterations(
    const TransactionDb& txns, const FrequentItemsets& frequent) {
  std::vector<IterationStats> out;
  for (size_t k = 1; k == 1 || out.back().c_size != 0; ++k) {
    IterationStats it;
    it.k = k;
    it.c_size = frequent.OfSize(k).size();
    for (const Transaction& t : txns) {
      const uint64_t n = t.items.size();
      if (k == 1) {
        it.r_prime_rows += n;
      } else if (k == 2) {
        it.r_prime_rows += n * (n - 1) / 2;
      } else {
        for (const PatternCount& s : frequent.OfSize(k - 1)) {
          if (!std::includes(t.items.begin(), t.items.end(),
                             s.items.begin(), s.items.end())) {
            continue;
          }
          it.r_prime_rows += static_cast<uint64_t>(
              t.items.end() - std::upper_bound(t.items.begin(), t.items.end(),
                                               s.items.back()));
        }
      }
      if (k == 1) {
        it.r_rows += n;
        continue;
      }
      for (const PatternCount& s : frequent.OfSize(k)) {
        it.r_rows += std::includes(t.items.begin(), t.items.end(),
                                   s.items.begin(), s.items.end());
      }
    }
    out.push_back(it);
  }
  return out;
}

/// Σ_p n_p (n_p - 1) / 2 over the sibling groups of `level`, sorted
/// itemsets of one size: the itemsets sharing all but their last item.
uint64_t SiblingPairs(const std::vector<PatternCount>& level) {
  uint64_t pairs = 0;
  for (size_t i = 0; i < level.size();) {
    size_t j = i + 1;
    while (j < level.size() &&
           std::equal(level[i].items.begin(), level[i].items.end() - 1,
                      level[j].items.begin())) {
      ++j;
    }
    pairs += (j - i) * (j - i - 1) / 2;
    i = j;
  }
  return pairs;
}

/// The "entries" of each iteration span under `trace`, in k order.
std::vector<uint64_t> SpanEntries(const obs::TraceSpan& trace) {
  std::vector<uint64_t> entries;
  for (const auto& child : trace.children()) {
    uint64_t merged = UINT64_MAX;
    for (const auto& [key, value] : child->counts()) {
      if (key == "entries") merged = value;
    }
    entries.push_back(merged);
  }
  return entries;
}

// A mine of SALES that repeats no row, with no lattice, counts only
// Apriori's join candidates: a kept row's extensions are its kept
// siblings above it. So at k >= 3 each of 3 shards hands the merge at
// most one key per pair of siblings in C_{k-1}, Σ_p n_p (n_p - 1) / 2,
// where a count of every C_1 extension would hand over keys up to
// |C_{k-1}| x |C_1|. The mine still equals the oracle, with the
// per-iteration stats the oracle's itemsets imply (|R'_k| counted whole),
// on both backings. The same slices run with every extension counted, as
// bound shards do, give the same answer and stats from more keys.
TEST(SetmOnePassTest, ShardsShipOnlyJoinCandidates) {
  QuestOptions gen;
  gen.seed = 43;
  gen.num_transactions = 800;
  gen.avg_transaction_size = 6;
  gen.num_items = 100;
  gen.num_patterns = 20;
  const TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.02;
  auto oracle = BruteForceMiner().Mine(txns, options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const FrequentItemsets& frequent = oracle.value().itemsets;
  ASSERT_GE(frequent.MaxSize(), 4u);
  const std::vector<IterationStats> want = ReferenceIterations(txns, frequent);
  constexpr size_t kShards = 3;
  for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
    SCOPED_TRACE(backing == TableBacking::kHeap ? "heap" : "memory");
    Database db;
    SetmOptions knobs{backing};
    knobs.num_threads = kShards;
    obs::TraceSpan pruned("mine");
    auto result = SetmMiner(&db, knobs, nullptr, &pruned).Mine(txns, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().itemsets == frequent);
    const std::vector<IterationStats>& got = result.value().iterations;
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("k=" + std::to_string(want[i].k));
      EXPECT_EQ(got[i].k, want[i].k);
      EXPECT_EQ(got[i].r_prime_rows, want[i].r_prime_rows);
      EXPECT_EQ(got[i].r_rows, want[i].r_rows);
      EXPECT_EQ(got[i].c_size, want[i].c_size);
    }

    // The same cut with every extension counted.
    shard::ShardRunOptions run;
    run.storage = backing;
    shard::SalesIntake intake(ExecContext::From(&db), run, kShards,
                              result.value().sales_rows);
    for (const Transaction& t : txns) {
      for (ItemId item : t.items) intake.Add(t.id, item);
    }
    auto slices = intake.Finish();
    ASSERT_TRUE(slices.ok()) << slices.status().ToString();
    ASSERT_EQ(slices.value().size(), kShards);
    std::vector<std::unique_ptr<shard::LocalShardBackend>> owned;
    std::vector<shard::ShardBackend*> backends;
    for (size_t i = 0; i < kShards; ++i) {
      owned.push_back(std::make_unique<shard::LocalShardBackend>(
          &db, "s" + std::to_string(i)));
      EXPECT_FALSE(slices.value()[i].anti_monotone);
      owned.back()->SetSlice(std::move(slices.value()[i]));
      backends.push_back(owned.back().get());
    }
    shard::CoordinatorOptions coord;
    coord.run = run;
    obs::TraceSpan whole("mine");
    coord.trace = &whole;
    auto control = shard::DistributedMine(backends, options, coord);
    ASSERT_TRUE(control.ok()) << control.status().ToString();
    EXPECT_TRUE(control.value().itemsets == frequent);
    ExpectSameIterations(control.value(), result.value());

    const std::vector<uint64_t> entries = SpanEntries(pruned);
    const std::vector<uint64_t> all = SpanEntries(whole);
    ASSERT_EQ(entries.size(), got.size());
    ASSERT_EQ(all.size(), got.size());
    uint64_t shipped = 0;
    uint64_t shipped_all = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const size_t k = i + 1;
      SCOPED_TRACE("k=" + std::to_string(k));
      EXPECT_GE(entries[i], got[i].c_size);
      EXPECT_LE(entries[i], all[i]);
      if (k <= 2) {
        EXPECT_EQ(entries[i], all[i]);  // C_1's items are all siblings
        continue;
      }
      EXPECT_LE(entries[i], kShards * SiblingPairs(frequent.OfSize(k - 1)));
      shipped += entries[i];
      shipped_all += all[i];
    }
    EXPECT_LT(2 * shipped, shipped_all);
  }
}

// The intake cuts SALES into shards at transaction boundaries only: a
// transaction longer than a shard's share of the rows stays whole, there
// are never more shards than transactions, and an empty SALES is one empty
// shard. Every shard but the last holds its share of the rows, the shards'
// transactions sum to |D|, none is empty, and the mine
// at 1, 3 and 8 threads equals the oracle, with the 1-thread mine's
// per-iteration stats.
TEST(SetmIntakeTest, ShardsAreCutAtTransactionBoundaries) {
  // 39 pairs, each pair's itemset also in transaction 20, which holds 45
  // items: more than a third of the 123 rows.
  TransactionDb long_one;
  for (TransactionId tid = 1; tid <= 40; ++tid) {
    if (tid == 20) {
      std::vector<ItemId> items(45);
      std::iota(items.begin(), items.end(), 0);
      long_one.push_back({tid, items});
    } else {
      long_one.push_back({tid, {tid % 8, 8 + tid % 5}});
    }
  }
  const TransactionDb few = {{1, {1, 2, 3}}, {2, {1, 2}}, {3, {2, 3}},
                             {4, {1, 3, 4}}, {5, {1, 2, 3, 4}}};
  const TransactionDb empty;
  const struct {
    const char* name;
    const TransactionDb* txns;
  } inputs[] = {{"a transaction past a shard's share", &long_one},
                {"fewer transactions than threads", &few},
                {"empty SALES", &empty}};
  MiningOptions options;
  options.min_support_count = 2;
  for (const auto& input : inputs) {
    const TransactionDb& txns = *input.txns;
    auto oracle = BruteForceMiner().Mine(txns, options);
    ASSERT_TRUE(oracle.ok());
    for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
      Database db;
      Table* sales = LoadRows(&db, txns, backing);
      ASSERT_NE(sales, nullptr);
      MiningResult serial;
      for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
        SCOPED_TRACE(std::string(input.name) +
                     " threads=" + std::to_string(threads) + " heap=" +
                     std::to_string(backing == TableBacking::kHeap));
        shard::ShardRunOptions run;
        run.storage = backing;
        shard::SalesIntake intake(ExecContext::From(&db), run, threads,
                                  sales->num_rows());
        ASSERT_TRUE(shard::ExtractRows(*sales, &intake).ok());
        auto slices = intake.Finish();
        ASSERT_TRUE(slices.ok()) << slices.status().ToString();
        ASSERT_GE(slices.value().size(), 1u);
        EXPECT_LE(slices.value().size(),
                  std::max<size_t>(1, std::min(threads, txns.size())));
        // Every shard but the last holds its share of the rows.
        const uint64_t share = (sales->num_rows() + threads - 1) / threads;
        uint64_t transactions = 0;
        for (const shard::ShardSlice& slice : slices.value()) {
          EXPECT_TRUE(slice.transactions > 0 || txns.empty());
          if (&slice != &slices.value().back()) {
            EXPECT_GE(slice.r1->num_rows(), share);
          }
          transactions += slice.transactions;
        }
        EXPECT_EQ(transactions, txns.size());
        EXPECT_EQ(ReadBack(std::move(slices).value()), Spell(txns));

        SetmOptions knobs{backing};
        knobs.num_threads = threads;
        auto from_table = SetmMiner(&db, knobs).MineTable(*sales, options);
        ASSERT_TRUE(from_table.ok()) << from_table.status().ToString();
        auto from_txns = SetmMiner(&db, knobs).Mine(txns, options);
        ASSERT_TRUE(from_txns.ok()) << from_txns.status().ToString();
        EXPECT_TRUE(from_table.value().itemsets == oracle.value().itemsets);
        EXPECT_TRUE(from_txns.value().itemsets == oracle.value().itemsets);
        if (threads == 1) serial = from_table.value();
        ExpectSameIterations(from_table.value(), serial);
        ExpectSameIterations(from_txns.value(), serial);
      }
    }
  }
}

// The descent fallback after R_1's pages have left the pool: over an
// 8-frame pool, 3 threads' R_1s are written to disk before a trans_id
// below the ones before it arrives, after the first shard switch. The
// intake reads its groups back, releases every R_1 page it wrote, and
// mines what the oracle mines; so does Mine() over transactions out of id
// order. The scratch pages are back at their count before the mine.
TEST(SetmIntakeTest, DescentAfterR1PagesLeftThePoolLeaksNoPage) {
  QuestOptions gen;
  gen.seed = 5;
  gen.num_transactions = 8000;
  gen.avg_transaction_size = 5;
  gen.num_items = 100;
  TransactionDb txns = QuestGenerator(gen).Generate();
  // Ids 2..8001 ascend; id 1 comes last.
  for (Transaction& t : txns) ++t.id;
  txns.push_back({1, {3, 5, 8}});
  TransactionDb halves(txns.begin() + 4000, txns.end());
  halves.insert(halves.end(), txns.begin(), txns.begin() + 4000);
  MiningOptions options;
  options.min_support = 0.03;
  auto oracle = BruteForceMiner().Mine(txns, options);
  ASSERT_TRUE(oracle.ok());
  auto* registry = obs::MetricsRegistry::Global();
  obs::Gauge* scratch = registry->GetGauge("setm_scratch_pages");
  obs::Gauge* buffered = registry->GetGauge("setm_mem_intake_bytes");
  DatabaseOptions db_options;
  db_options.pool_frames = 8;
  Database db(db_options);
  Table* sales = LoadRows(&db, txns, TableBacking::kHeap);
  ASSERT_NE(sales, nullptr);
  SetmOptions knobs{TableBacking::kHeap};
  knobs.num_threads = 3;
  for (bool table : {true, false}) {
    SCOPED_TRACE(table ? "SALES table" : "transactions in two halves");
    const int64_t scratch_before = scratch->Value();
    buffered->Set(0);
    auto mined = table ? SetmMiner(&db, knobs).MineTable(*sales, options)
                       : SetmMiner(&db, knobs).Mine(halves, options);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    EXPECT_TRUE(mined.value().itemsets == oracle.value().itemsets);
    EXPECT_GT(mined.value().iterations[0].r_pages,
              2 * db_options.pool_frames);
    EXPECT_GT(buffered->Value(), 0);
    EXPECT_EQ(scratch->Value(), scratch_before);
  }
}

// The intake holds no row of SALES that arrives in trans_id order: an
// in-order kHeap mine at 5,000 and 50,000 transactions leaves the
// setm_mem_intake_bytes high-water mark at 0, its pool the only home of
// its rows; the same SALES in descending order buffers them.
TEST(SetmIntakeTest, InOrderSalesBuffersNoRow) {
  obs::Gauge* buffered =
      obs::MetricsRegistry::Global()->GetGauge("setm_mem_intake_bytes");
  MiningOptions options;
  options.min_support = 0.05;
  for (size_t n : {size_t{5000}, size_t{50000}}) {
    QuestOptions gen;
    gen.seed = 9;
    gen.num_transactions = n;
    gen.avg_transaction_size = 5;
    gen.num_items = 100;
    const TransactionDb txns = QuestGenerator(gen).Generate();
    const TransactionDb descending(txns.rbegin(), txns.rend());
    for (const TransactionDb* order : {&txns, &descending}) {
      SCOPED_TRACE(std::to_string(n) + " transactions" +
                   (order == &txns ? "" : ", descending"));
      Database db;
      Table* sales = LoadRows(&db, *order, TableBacking::kHeap);
      ASSERT_NE(sales, nullptr);
      buffered->Set(0);
      auto mined = SetmMiner(&db, SetmOptions{TableBacking::kHeap})
                       .MineTable(*sales, options);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      ASSERT_GE(mined.value().iterations.size(), 2u);
      if (order == &txns) {
        EXPECT_EQ(buffered->Value(), 0);
      } else {
        EXPECT_GE(buffered->Value(),
                  static_cast<int64_t>(sales->num_rows() * 2 *
                                       sizeof(int32_t)));
      }
    }
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
