// The scale-out subsystem: shard manifest codec, LocalShardBackend slices,
// the distributed count coordinator, ShardedDatabase over file
// shards and RemoteShardBackend over live setm_served sessions. The core
// contract under test is bit-identity: any shard count, either scratch
// backing and either transport must reproduce single-node SETM exactly —
// itemsets, per-iteration cardinalities, everything but wall-clock.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/miner_registry.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "exec/worker_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/shard_manifest.h"
#include "shard/coordinator.h"
#include "shard/local_backend.h"
#include "shard/remote_backend.h"
#include "shard/sharded_db.h"

namespace setm {
namespace {

using net::MiningServer;
using net::ServerOptions;
using shard::CoordinatorOptions;
using shard::DistributedMine;
using shard::LocalShardBackend;
using shard::RemoteShardBackend;
using shard::ShardBackend;
using shard::ShardedDatabase;
using shard::SalesIntake;
using shard::ShardRunOptions;

TransactionDb QuestDb(uint64_t seed, uint32_t num_transactions = 200) {
  QuestOptions gen;
  gen.seed = seed;
  gen.num_transactions = num_transactions;
  gen.avg_transaction_size = 5;
  gen.num_items = 20;
  gen.num_patterns = 12;
  return QuestGenerator(gen).Generate();
}

/// Row-balanced split at transaction boundaries — the shardctl split rule.
std::vector<TransactionDb> SplitTxns(const TransactionDb& txns,
                                     size_t num_shards) {
  size_t total_rows = 0;
  for (const Transaction& t : txns) total_rows += t.items.size();
  std::vector<TransactionDb> slices(num_shards);
  size_t begin = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const size_t target = (total_rows + num_shards - 1) / num_shards;
    size_t rows = 0;
    while (begin < txns.size() && (rows < target || slices[shard].empty()) &&
           txns.size() - begin > num_shards - shard - 1) {
      rows += txns[begin].items.size();
      slices[shard].push_back(txns[begin]);
      ++begin;
    }
  }
  return slices;
}

/// Loads `slice`'s rows, repeated items included, into a SALES table of
/// its own in `db` and binds `backend` to it: the backend reads it at
/// every BeginRun.
void BindSlice(Database* db, LocalShardBackend* backend,
               const TransactionDb& slice) {
  static int tables = 0;
  const std::string name = "slice" + std::to_string(tables++);
  auto table = db->catalog()->CreateTable(name, SetmMiner::SalesSchema(),
                                          TableBacking::kMemory);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (const Transaction& t : slice) {
    for (ItemId item : t.items) {
      ASSERT_TRUE(table.value()
                      ->Insert(Tuple({Value::Int32(t.id), Value::Int32(item)}))
                      .ok());
    }
  }
  backend->BindTable(name);
}

/// The reference: 1-thread "setm", i.e. the one-shard coordinator run,
/// itself anchored to setm-sql's per-iteration stats by
/// miners_equivalence_test.
Result<MiningResult> SingleNode(const TransactionDb& txns,
                                const MiningOptions& options,
                                const SetmOptions& knobs = {}) {
  Database db;
  auto miner = MinerRegistry::Create("setm", &db, knobs);
  if (!miner.ok()) return miner.status();
  MiningRequest request;
  request.transactions = &txns;
  request.options = options;
  return miner.value()->Mine(request);
}

/// Runs the coordinator over local backends bound to one table per slice.
Result<MiningResult> MineSlices(Database* db,
                                const std::vector<TransactionDb>& slices,
                                const MiningOptions& options,
                                const ShardRunOptions& run,
                                WorkerPool* pool = nullptr,
                                obs::TraceSpan* trace = nullptr,
                                const FrequentItemsets* lattice = nullptr) {
  std::vector<std::unique_ptr<LocalShardBackend>> owned;
  std::vector<ShardBackend*> backends;
  for (size_t i = 0; i < slices.size(); ++i) {
    auto backend = std::make_unique<LocalShardBackend>(
        db, "s" + std::to_string(i));
    BindSlice(db, backend.get(), slices[i]);
    backends.push_back(backend.get());
    owned.push_back(std::move(backend));
  }
  CoordinatorOptions coord;
  coord.run = run;
  coord.pool = pool;
  coord.trace = trace;
  coord.lattice = lattice;
  return DistributedMine(backends, options, coord);
}

/// Everything but wall-clock and page counts must match: pages round up per
/// shard (partial last pages), so only the single-node run's sums are exact.
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

// --------------------------------------------------------------------------
// Coordinator identity over in-process slices.
// --------------------------------------------------------------------------

class DistributedIdentityTest
    : public testing::TestWithParam<
          std::tuple<uint64_t, size_t, TableBacking>> {};

TEST_P(DistributedIdentityTest, BitIdenticalToSingleNode) {
  const uint64_t seed = std::get<0>(GetParam());
  const size_t num_shards = std::get<1>(GetParam());
  const TableBacking backing = std::get<2>(GetParam());

  TransactionDb txns = QuestDb(seed);
  MiningOptions options;
  options.min_support = 0.04;

  SetmOptions knobs;
  knobs.storage = backing;
  auto expected = SingleNode(txns, options, knobs);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Database db;
  WorkerPool pool(num_shards);
  ShardRunOptions run;
  run.storage = backing;
  auto result = MineSlices(&db, SplitTxns(txns, num_shards), options, run,
                           &pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets)
      << num_shards << " shards diverge: "
      << result.value().itemsets.TotalPatterns() << " vs "
      << expected.value().itemsets.TotalPatterns() << " patterns";
  EXPECT_EQ(result.value().itemsets.num_transactions, txns.size());
  ExpectSameIterations(result.value(), expected.value());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedIdentityTest,
    testing::Combine(testing::Values(uint64_t{7}, uint64_t{21}),
                     testing::Values(size_t{2}, size_t{3}, size_t{5}),
                     testing::Values(TableBacking::kMemory,
                                     TableBacking::kHeap)));

TEST(DistributedMineTest, HashCountingAndFilterR1MatchSingleNode) {
  TransactionDb txns = QuestDb(33);
  MiningOptions options;
  options.min_support = 0.05;
  options.filter_r1 = true;  // exercises the k == 1 ApplyGlobalCk path

  SetmOptions knobs;
  knobs.count_method = CountMethod::kHash;
  auto expected = SingleNode(txns, options, knobs);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Database db;
  ShardRunOptions run;
  run.count_method = CountMethod::kHash;
  auto result = MineSlices(&db, SplitTxns(txns, 3), options, run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
  ExpectSameIterations(result.value(), expected.value());
}

TEST(DistributedMineTest, EmptyShardContributesNothing) {
  TransactionDb txns = QuestDb(5, 120);
  MiningOptions options;
  options.min_support = 0.05;
  auto expected = SingleNode(txns, options);
  ASSERT_TRUE(expected.ok());

  std::vector<TransactionDb> slices = SplitTxns(txns, 2);
  slices.insert(slices.begin() + 1, TransactionDb{});  // middle shard empty

  Database db;
  auto result = MineSlices(&db, slices, options, ShardRunOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
  EXPECT_EQ(result.value().itemsets.num_transactions, txns.size());
  ExpectSameIterations(result.value(), expected.value());
}

TEST(DistributedMineTest, SkewedShardsStayExact) {
  TransactionDb txns = QuestDb(9, 150);
  MiningOptions options;
  options.min_support = 0.04;
  auto expected = SingleNode(txns, options);
  ASSERT_TRUE(expected.ok());

  // 90/10 split: one giant shard, one with a handful of transactions.
  std::vector<TransactionDb> slices(2);
  const size_t cut = txns.size() * 9 / 10;
  slices[0].assign(txns.begin(), txns.begin() + cut);
  slices[1].assign(txns.begin() + cut, txns.end());

  Database db;
  auto result = MineSlices(&db, slices, options, ShardRunOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
  ExpectSameIterations(result.value(), expected.value());
}

/// SETM's count of `items` (sorted, distinct) over `txns`, whose items may
/// repeat: one per combination of rows, the product over `items` of each
/// transaction's rows of that item.
int64_t RowCount(const TransactionDb& txns, const std::vector<ItemId>& items) {
  int64_t total = 0;
  for (const Transaction& t : txns) {
    int64_t combinations = 1;
    for (ItemId item : items) {
      combinations *= std::count(t.items.begin(), t.items.end(), item);
    }
    total += combinations;
  }
  return total;
}

// Given a lattice, the coordinator counts exactly its members: each one the
// data holds survives with SETM's count, however far below minsupport, and
// nothing else is reported, over one shard (whose count floor stays 1) or
// several, on SALES rows that repeat an item.
TEST(DistributedMineTest, LatticeCountKeepsExactlyItsMembers) {
  TransactionDb txns;
  for (TransactionId tid = 1; tid <= 4; ++tid) {
    txns.push_back({tid, {1, 2, 2, 3}});
  }
  txns.push_back({5, {1, 3}});
  for (TransactionId tid = 6; tid <= 9; ++tid) txns.push_back({tid, {4, 5}});
  // Downward closed. {9} is in no transaction, and 1 and 4 never meet, so
  // no shard reports {1, 4}'s key.
  FrequentItemsets lattice;
  for (const std::vector<ItemId>& items :
       std::vector<std::vector<ItemId>>{{1}, {2}, {3}, {4}, {9}, {1, 2},
                                        {1, 3}, {1, 4}, {2, 3}, {1, 2, 3}}) {
    lattice.Add(items, 1);
  }
  FrequentItemsets expected;
  for (size_t k = 1; k <= lattice.MaxSize(); ++k) {
    for (const PatternCount& pc : lattice.OfSize(k)) {
      const int64_t count = RowCount(txns, pc.items);
      if (count > 0) expected.Add(pc.items, count);
    }
  }
  expected.Normalize();
  ASSERT_EQ(expected.TotalPatterns(), 8u);
  ASSERT_EQ(expected.CountOf({1, 2, 3}), 8);

  MiningOptions options;
  options.min_support_count = 1000;  // above every count
  for (size_t num_shards : {size_t{1}, size_t{3}}) {
    for (TableBacking backing : {TableBacking::kMemory, TableBacking::kHeap}) {
      SCOPED_TRACE(std::to_string(num_shards) + " shards, " +
                   (backing == TableBacking::kHeap ? "heap" : "memory"));
      Database db;
      ShardRunOptions run;
      run.storage = backing;
      auto result = MineSlices(&db, SplitTxns(txns, num_shards), options, run,
                               nullptr, nullptr, &lattice);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const FrequentItemsets& counted = result.value().itemsets;
      EXPECT_TRUE(counted == expected) << counted.TotalPatterns();
      EXPECT_EQ(counted.CountOf({2}), 8);
      EXPECT_EQ(counted.CountOf({9}), 0);     // a member absent from the data
      EXPECT_EQ(counted.CountOf({1, 4}), 0);  // a key no shard reports
      EXPECT_EQ(counted.CountOf({4, 5}), 0);  // a non-member
      EXPECT_EQ(counted.CountOf({5}), 0);
    }
  }
}

// A sole shard's counts are global, so the coordinator lets it prune at
// minsupport. The floor must drop exactly the sub-floor candidates, under
// either count method, and last only until the next BeginRun.
TEST(LocalShardBackendTest, CountFloorPrunesShippedCounts) {
  const TransactionDb txns = QuestDb(33);
  const int64_t floor = 10;
  for (CountMethod method : {CountMethod::kSortMerge, CountMethod::kHash}) {
    SCOPED_TRACE(method == CountMethod::kHash ? "hash" : "sort-merge");
    ShardRunOptions run;
    run.count_method = method;
    Database db;
    LocalShardBackend backend(&db, "s0");
    BindSlice(&db, &backend, txns);
    using Counts = std::vector<std::tuple<int32_t, ItemId, int32_t>>;
    // Sorted C_2 counts of one run, optionally with a floor set after k=1.
    auto c2 = [&](bool with_floor) {
      Counts out;
      EXPECT_TRUE(backend.BeginRun(run).ok());
      auto first = backend.CountFirstIteration();
      EXPECT_TRUE(first.ok()) << first.status().ToString();
      if (!first.ok()) return out;
      if (with_floor) backend.SetCountFloor(floor);
      // Without filter_r1, ApplyGlobalCk(1) keeps R_1 and ships the pairs
      // of C_1's items: here every item the slice counted, in key order.
      std::vector<CandidateKey> c1;
      const std::vector<int32_t>& items = first.value().counts;
      for (size_t at = 0; at < items.size(); at += 3) {
        c1.push_back(CandidateKey{items[at], items[at + 1]});
      }
      auto counts = backend.ApplyGlobalCk(1, c1);
      EXPECT_TRUE(counts.ok()) << counts.status().ToString();
      if (!counts.ok()) return out;
      const std::vector<int32_t>& rows = counts.value().counts;
      for (size_t at = 0; at < rows.size(); at += 3) {
        out.emplace_back(rows[at], rows[at + 1], rows[at + 2]);
      }
      return out;
    };
    const Counts full = c2(false);
    const Counts floored = c2(true);
    Counts expected;
    for (const auto& entry : full) {
      if (std::get<2>(entry) >= floor) expected.push_back(entry);
    }
    ASSERT_LT(expected.size(), full.size());  // the floor really prunes
    EXPECT_EQ(floored, expected);
    EXPECT_EQ(c2(false), full);  // BeginRun reset the floor
  }
}

// An in-process shard's slice, as the intake wrote it, serves one run: the
// run reports its R_1 and C_1 counts, and a second BeginRun without a new
// slice is refused naming the shard. A backend bound to no table has no
// health to report.
TEST(LocalShardBackendTest, AHandedSliceServesOneRun) {
  const TransactionDb txns = QuestDb(36);
  Database db;
  SalesIntake intake(ExecContext::From(&db), ShardRunOptions{}, 1, 0);
  uint64_t rows = 0;
  for (const Transaction& t : txns) {
    for (ItemId item : t.items) intake.Add(t.id, item);
    rows += t.items.size();
  }
  auto slices = intake.Finish();
  ASSERT_TRUE(slices.ok()) << slices.status().ToString();
  ASSERT_EQ(slices.value().size(), 1u);
  LocalShardBackend backend(&db, "s3");
  backend.SetSlice(std::move(slices.value().front()));
  ASSERT_TRUE(backend.BeginRun(ShardRunOptions{}).ok());
  auto first = backend.CountFirstIteration();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().transactions, txns.size());
  EXPECT_EQ(first.value().r_rows, rows);
  EXPECT_EQ(first.value().r_prime_rows, rows);
  int64_t counted = 0;
  for (size_t at = 0; at < first.value().counts.size(); at += 3) {
    counted += first.value().counts[at + 2];
  }
  EXPECT_EQ(counted, static_cast<int64_t>(rows));
  ASSERT_TRUE(backend.EndRun().ok());
  const Status again = backend.BeginRun(ShardRunOptions{});
  EXPECT_FALSE(again.ok());
  EXPECT_NE(again.message().find("shard s3"), std::string::npos)
      << again.ToString();
  EXPECT_TRUE(backend.Health().status().IsNotFound());
}

// A bound table's intake writes only the transactions of two rows or more
// to R_1, and reads a descending table again: the shard still reports
// every row in |R_1|, in order or not. Pass 1 reports |R_1| as every row
// kept, and under filter_r1 as the rows of C_1's items (C_1's local count
// of them), although the one-row transactions were never written.
TEST(LocalShardBackendTest, OneRowTransactionsStayInTheReportedR1) {
  const TransactionDb txns = {{1, {1, 2, 3}}, {2, {4}},    {3, {1, 9}},
                              {4, {2}},       {5, {1, 2}}, {6, {9}}};
  const TransactionDb descending(txns.rbegin(), txns.rend());
  const std::vector<CandidateKey> c1 = {{0, 1}, {0, 2}};
  for (const TransactionDb* order : {&txns, &descending}) {
    for (bool filter : {false, true}) {
      SCOPED_TRACE(std::string(order == &txns ? "ascending" : "descending") +
                   (filter ? ", filter_r1" : ""));
      Database db;
      LocalShardBackend backend(&db, "s2");
      BindSlice(&db, &backend, *order);
      ShardRunOptions run;
      run.filter_r1 = filter;
      ASSERT_TRUE(backend.BeginRun(run).ok());
      auto first = backend.CountFirstIteration();
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      EXPECT_EQ(first.value().transactions, 6u);
      EXPECT_EQ(first.value().r_rows, 10u);
      EXPECT_EQ(first.value().r_bytes, 10u * 2 * sizeof(int32_t));
      EXPECT_EQ(first.value().r_pages, 1u);
      auto pass1 = backend.ApplyGlobalCk(1, c1);
      ASSERT_TRUE(pass1.ok()) << pass1.status().ToString();
      // Filtered: {1 2} of 1, {1} of 3, {2} of 4, {1 2} of 5.
      const uint64_t rows = filter ? 6 : 10;
      EXPECT_EQ(pass1.value().r_rows, rows);
      EXPECT_EQ(pass1.value().r_bytes, rows * 2 * sizeof(int32_t));
      // R'_2: the pairs of the R_1 that pass 2 joins.
      EXPECT_EQ(pass1.value().r_prime_rows, filter ? 2u : 5u);
      ASSERT_TRUE(backend.EndRun().ok());
    }
  }
}

// LCOUNT/MERGE put the iteration number and C_k on the wire, so the
// backend must reject calls out of protocol order, and keys that name no
// parent of the level below, with a Status naming the shard rather than
// read rows at the wrong level. The order is CountFirstIteration once,
// then ApplyGlobalCk(1), (2), ...; a rejected call leaves the run usable in
// order.
TEST(LocalShardBackendTest, IterationOrderIsEnforced) {
  Database db;
  LocalShardBackend backend(&db, "s7");
  BindSlice(&db, &backend, QuestDb(34));
  const auto expect_invalid = [](const Result<shard::ShardReply>& r) {
    ASSERT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("shard s7"), std::string::npos)
        << r.status().message();
  };
  // Every count row extends one of the `parents` ids of the C_k applied.
  const auto expect_parents = [](const Result<shard::ShardReply>& r,
                                 int32_t parents) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::vector<int32_t>& rows = r.value().counts;
    ASSERT_EQ(rows.size() % 3, 0u);
    for (size_t at = 0; at < rows.size(); at += 3) {
      ASSERT_GE(rows[at], 0);
      ASSERT_LT(rows[at], parents);
    }
  };
  ASSERT_TRUE(backend.BeginRun(ShardRunOptions{}).ok());
  EXPECT_TRUE(backend.ApplyGlobalCk(0, {}).status().IsInvalidArgument());
  expect_invalid(backend.ApplyGlobalCk(1, {{0, 1}}));  // no first count yet
  ASSERT_TRUE(backend.CountFirstIteration().ok());
  expect_invalid(backend.CountFirstIteration());       // once per run
  expect_invalid(backend.ApplyGlobalCk(2, {{0, 2}}));  // pass 1 first
  // C_1's keys extend the empty itemset, id 0, only.
  expect_invalid(backend.ApplyGlobalCk(1, {{1, 2}}));
  // C_1 = {1}, {2}, {3}: ids 0, 1, 2.
  expect_parents(backend.ApplyGlobalCk(1, {{0, 1}, {0, 2}, {0, 3}}), 3);
  expect_invalid(backend.ApplyGlobalCk(1, {{0, 1}}));  // one pass per k
  expect_invalid(backend.ApplyGlobalCk(3, {{0, 3}}));
  expect_invalid(backend.ApplyGlobalCk(2, {{3, 4}}));  // C_1 has ids 0..2
  // C_2 = {1 2}: id 0.
  expect_parents(backend.ApplyGlobalCk(2, {{0, 2}}), 1);
  expect_invalid(backend.ApplyGlobalCk(2, {{0, 2}}));
  // C_3 = {1 2 3}.
  expect_parents(backend.ApplyGlobalCk(3, {{0, 3}}), 1);

  // Under filter_r1, ApplyGlobalCk(1) rewrites R_1 and counts R'_2 over it:
  // only pairs of C_1's items remain.
  ShardRunOptions filtered;
  filtered.filter_r1 = true;
  ASSERT_TRUE(backend.BeginRun(filtered).ok());
  ASSERT_TRUE(backend.CountFirstIteration().ok());
  auto pairs = backend.ApplyGlobalCk(1, {{0, 1}, {0, 2}, {0, 3}});
  expect_parents(pairs, 3);
  EXPECT_FALSE(pairs.value().counts.empty());
  const std::vector<int32_t>& rows = pairs.value().counts;
  for (size_t at = 0; at < rows.size(); at += 3) {
    EXPECT_GT(rows[at + 1], rows[at] + 1) << rows[at] << " " << rows[at + 1];
    EXPECT_LE(rows[at + 1], 3) << rows[at] << " " << rows[at + 1];
  }

  // Past the run's max_pattern_length no pass counts.
  ShardRunOptions short_run;
  short_run.max_pattern_length = 2;
  ASSERT_TRUE(backend.BeginRun(short_run).ok());
  ASSERT_TRUE(backend.CountFirstIteration().ok());
  ASSERT_TRUE(backend.ApplyGlobalCk(1, {{0, 1}, {0, 2}}).ok());
  auto last = backend.ApplyGlobalCk(2, {{0, 2}});
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last.value().r_prime_rows, 0u);
  EXPECT_TRUE(last.value().counts.empty());
}

// Each iteration span counts the (parent id, item) count keys the shards
// handed to the merge, as setm_count_entries_total does. A shard ships
// only pairs of C_1's items at k = 2, at most |C_1|(|C_1| - 1)/2, and from
// k = 3 on its entries extend a C_{k-1} itemset by a C_1 item, so no shard
// hands over more than |C_{k-1}| x |C_1|, although most items here are not
// in C_1.
TEST(DistributedMineTest, IterationSpansCountMergedEntries) {
  QuestOptions gen;
  gen.seed = 36;
  gen.num_transactions = 600;
  gen.avg_transaction_size = 6;
  gen.num_items = 80;
  gen.num_patterns = 12;
  const TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.03;
  obs::Counter* entries = obs::MetricsRegistry::Global()->GetCounter(
      "setm_count_entries_total");
  const uint64_t before = entries->Value();
  Database db;
  obs::TraceSpan root("mine");
  const size_t kShards = 3;
  auto result = MineSlices(&db, SplitTxns(txns, kShards), options,
                           ShardRunOptions{}, nullptr, &root);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FrequentItemsets& frequent = result.value().itemsets;
  ASSERT_LT(frequent.OfSize(1).size(), 40u);
  ASSERT_EQ(root.children().size(), result.value().iterations.size());
  ASSERT_GE(root.children().size(), 3u);
  uint64_t spans = 0;
  for (size_t i = 0; i < root.children().size(); ++i) {
    const size_t k = i + 1;
    SCOPED_TRACE("k=" + std::to_string(k));
    uint64_t merged = UINT64_MAX;
    for (const auto& [key, value] : root.children()[i]->counts()) {
      if (key == "entries") merged = value;
    }
    ASSERT_NE(merged, UINT64_MAX);
    spans += merged;
    EXPECT_GE(merged, result.value().iterations[i].c_size);
    const uint64_t c1 = frequent.OfSize(1).size();
    if (k == 2) {
      EXPECT_LE(merged, kShards * c1 * (c1 - 1) / 2);
    }
    if (k >= 3) {
      EXPECT_LE(merged, kShards * frequent.OfSize(k - 1).size() * c1);
    }
  }
  EXPECT_EQ(entries->Value() - before, spans);
}

/// A shard whose reply to one call, CountFirstIteration (pass 0) or
/// ApplyGlobalCk(pass), is rewritten by `mutate` from the C_k it was given
/// (empty for pass 0) and its real (parent id, item, count) rows.
class BadReplyBackend : public LocalShardBackend {
 public:
  using Mutate = std::function<std::vector<int32_t>(
      const std::vector<CandidateKey>& ck, const std::vector<int32_t>& rows)>;

  BadReplyBackend(Database* db, std::string name, size_t pass, Mutate mutate)
      : LocalShardBackend(db, std::move(name)),
        pass_(pass),
        mutate_(std::move(mutate)) {}

  Result<shard::ShardReply> CountFirstIteration() override {
    return Rewrite(0, {}, LocalShardBackend::CountFirstIteration());
  }
  Result<shard::ShardReply> ApplyGlobalCk(
      size_t k, const std::vector<CandidateKey>& ck) override {
    return Rewrite(k, ck, LocalShardBackend::ApplyGlobalCk(k, ck));
  }

 private:
  Result<shard::ShardReply> Rewrite(size_t pass,
                                    const std::vector<CandidateKey>& ck,
                                    Result<shard::ShardReply> reply) {
    if (reply.ok() && pass == pass_) {
      reply.value().counts = mutate_(ck, reply.value().counts);
    }
    return reply;
  }

  size_t pass_;
  Mutate mutate_;
};

// Count keys are checked at the merge, against the level the coordinator
// broadcast, whoever sent them: a key whose parent is no id of C_{k-1}
// (negative, or past its ids), whose item is outside C_1 or not above its
// parent's last item, a repeated or descending key and a count of 0 are
// each Corruption naming the shard, at every k, instead of a miss.
TEST(DistributedMineTest, MalformedCountKeysAreCorruptionNamingTheShard) {
  const std::vector<TransactionDb> slices = SplitTxns(QuestDb(37), 2);
  using Ck = std::vector<CandidateKey>;
  using Rows = std::vector<int32_t>;
  const struct {
    const char* name;
    size_t pass;
    BadReplyBackend::Mutate mutate;
    const char* what;
  } cases[] = {
      {"C_1 key with parent 1", 0,
       [](const Ck&, const Rows&) { return Rows{1, 1, 1}; },
       "outside C_0's ids [0, 1)"},
      {"negative parent", 0,
       [](const Ck&, const Rows&) { return Rows{-1, 1, 1}; },
       "outside C_0's ids"},
      {"parent past C_1's ids", 1,
       [](const Ck&, const Rows&) { return Rows{INT32_MAX, 1, 1}; },
       "outside C_1's ids"},
      {"negative item", 1,
       [](const Ck&, const Rows&) { return Rows{0, -1, 1}; },
       "item outside C_1"},
      {"item outside C_1", 1,
       [](const Ck&, const Rows&) { return Rows{0, 1000000, 1}; },
       "item outside C_1"},
      {"item not above its parent's", 1,
       [](const Ck& c1, const Rows&) { return Rows{0, c1[0].item, 1}; },
       "not above its parent's last item"},
      {"C_3 key not above its parent's", 2,
       [](const Ck& c2, const Rows&) { return Rows{0, c2[0].item, 1}; },
       "not above its parent's last item"},
      {"parent past C_2's ids", 2,
       [](const Ck& c2, const Rows&) {
         return Rows{static_cast<int32_t>(c2.size()), 1, 1};
       },
       "outside C_2's ids"},
      {"repeated key", 1,
       [](const Ck&, const Rows& rows) {
         return Rows{rows[0], rows[1], 1, rows[0], rows[1], 1};
       },
       "not strictly ascending"},
      {"descending keys", 1,
       [](const Ck&, const Rows& rows) {
         return Rows{rows[3], rows[4], 1, rows[0], rows[1], 1};
       },
       "not strictly ascending"},
      {"count of 0", 1,
       [](const Ck&, const Rows& rows) { return Rows{rows[0], rows[1], 0}; },
       "a count of 0"},
      {"a partial row", 1,
       [](const Ck&, const Rows& rows) { return Rows{rows[0], rows[1]}; },
       "partial"},
  };
  MiningOptions options;
  options.min_support = 0.04;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Database db;
    LocalShardBackend good(&db, "s0");
    BindSlice(&db, &good, slices[0]);
    BadReplyBackend bad(&db, "s1", c.pass, c.mutate);
    BindSlice(&db, &bad, slices[1]);
    auto result =
        DistributedMine({&good, &bad}, options, CoordinatorOptions{});
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
    EXPECT_NE(result.status().message().find("shard 's1'"), std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find(c.what), std::string::npos)
        << result.status().ToString();
  }
}

// Pass k trusts its C_k for ids and child ranges, and a remote coordinator
// sends it over MERGE, so a malformed C_k is refused with InvalidArgument
// naming the shard: keys that are unsorted or repeated, a parent that is
// no id of the shard's C_{k-1}, and an item outside C_1 or not above its
// parent's last item. A refused call changes nothing: the same pass then
// runs on a well-formed C_k.
TEST(LocalShardBackendTest, MalformedCkIsInvalidArgument) {
  Database db;
  LocalShardBackend backend(&db, "s9");
  BindSlice(&db, &backend, QuestDb(35));
  const auto expect_refused = [](const Result<shard::ShardReply>& r,
                                 const std::string& what) {
    ASSERT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("shard s9"), std::string::npos)
        << r.status().message();
    EXPECT_NE(r.status().message().find(what), std::string::npos)
        << r.status().message();
  };
  const std::string unsorted = "not strictly ascending";
  for (bool filter_r1 : {false, true}) {
    SCOPED_TRACE("filter_r1=" + std::to_string(filter_r1));
    ShardRunOptions run;
    run.filter_r1 = filter_r1;
    ASSERT_TRUE(backend.BeginRun(run).ok());
    ASSERT_TRUE(backend.CountFirstIteration().ok());
    expect_refused(backend.ApplyGlobalCk(1, {{0, 3}, {0, 1}, {0, 2}}),
                   unsorted);
    expect_refused(backend.ApplyGlobalCk(1, {{0, 1}, {0, 2}, {0, 2}}),
                   unsorted);
    expect_refused(backend.ApplyGlobalCk(1, {{0, 1}, {1, 2}}),
                   "outside C_0's ids");
    // C_1 = {1} .. {5}: ids 0 .. 4.
    ASSERT_TRUE(
        backend.ApplyGlobalCk(1, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
            .ok());

    expect_refused(backend.ApplyGlobalCk(2, {{0, 3}, {0, 2}}), unsorted);
    expect_refused(backend.ApplyGlobalCk(2, {{0, 2}, {0, 2}}), unsorted);
    expect_refused(backend.ApplyGlobalCk(2, {{0, 2}, {2, 2}}),
                   "not above its parent's last item");
    expect_refused(backend.ApplyGlobalCk(2, {{0, 2}, {5, 6}}),
                   "outside C_1's ids [0, 5)");
    expect_refused(backend.ApplyGlobalCk(2, {{-1, 2}}), "outside C_1's ids");
    expect_refused(backend.ApplyGlobalCk(2, {{0, 2}, {0, 6}}),
                   "item outside C_1");
    // C_2 = {1 2}, {1 3}, {2 3}, {2 4}: ids 0 .. 3.
    auto pass2 = backend.ApplyGlobalCk(2, {{0, 2}, {0, 3}, {1, 3}, {1, 4}});
    ASSERT_TRUE(pass2.ok()) << pass2.status().ToString();

    expect_refused(backend.ApplyGlobalCk(3, {{0, 3}, {4, 5}}),
                   "outside C_2's ids [0, 4)");
    expect_refused(backend.ApplyGlobalCk(3, {{2, 6}}), "item outside C_1");
    expect_refused(backend.ApplyGlobalCk(3, {{1, 3}}),
                   "not above its parent's last item");
    // C_3 = {1 2 3}, {2 3 4}.
    auto pass3 = backend.ApplyGlobalCk(3, {{0, 3}, {2, 4}});
    ASSERT_TRUE(pass3.ok()) << pass3.status().ToString();
  }
}

TEST(DistributedMineTest, NoShardsIsInvalidArgument) {
  auto result = DistributedMine({}, MiningOptions{}, CoordinatorOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// --------------------------------------------------------------------------
// Failure semantics: a down shard fails the run, named, with no partial
// result; cancellation passes through unprefixed.
// --------------------------------------------------------------------------

/// A shard whose disk "goes away" at a chosen point in the protocol.
class FailingBackend : public ShardBackend {
 public:
  enum class FailAt { kBegin, kPass };

  FailingBackend(std::string name, FailAt fail_at, size_t fail_k)
      : name_(std::move(name)), fail_at_(fail_at), fail_k_(fail_k) {}

  const std::string& name() const override { return name_; }

  Status BeginRun(const ShardRunOptions& options) override {
    if (fail_at_ == FailAt::kBegin) {
      return Status::IOError("shard file torn away");
    }
    return real_.BeginRun(options);
  }

  Result<shard::ShardReply> CountFirstIteration() override {
    return real_.CountFirstIteration();
  }

  Result<shard::ShardReply> ApplyGlobalCk(
      size_t k, const std::vector<CandidateKey>& ck) override {
    if (fail_at_ == FailAt::kPass && k >= fail_k_) {
      return Status::IOError("read failed mid-pass");
    }
    return real_.ApplyGlobalCk(k, ck);
  }

  Status EndRun() override { return real_.EndRun(); }
  Result<shard::ShardHealth> Health() override {
    return shard::ShardHealth{};
  }

  void Bind(const TransactionDb& slice) { BindSlice(&db_, &real_, slice); }
  Database* db() { return &db_; }

 private:
  std::string name_;
  FailAt fail_at_;
  size_t fail_k_;
  Database db_;
  LocalShardBackend real_{&db_, "inner"};
};

TEST(DistributedMineTest, DownShardIsUnavailableNamingTheShard) {
  TransactionDb txns = QuestDb(3, 100);
  std::vector<TransactionDb> slices = SplitTxns(txns, 3);

  for (FailingBackend::FailAt fail_at :
       {FailingBackend::FailAt::kBegin, FailingBackend::FailAt::kPass}) {
    Database db;
    LocalShardBackend healthy0(&db, "s0");
    BindSlice(&db, &healthy0, slices[0]);
    LocalShardBackend healthy1(&db, "s1");
    BindSlice(&db, &healthy1, slices[1]);
    FailingBackend bad("flaky-shard", fail_at, 2);
    bad.Bind(slices[2]);

    MiningOptions options;
    options.min_support = 0.04;
    auto result = DistributedMine({&healthy0, &healthy1, &bad}, options,
                                  CoordinatorOptions{});
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsUnavailable())
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("shard 'flaky-shard'"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(DistributedMineTest, NonTransportErrorKeepsItsCode) {
  // Unknown table on a bound backend is NotFound, not a transport failure:
  // the coordinator must keep the code, naming the shard.
  Database db;
  LocalShardBackend backend(&db, "s0");
  backend.BindTable("nosuch");
  auto result =
      DistributedMine({&backend}, MiningOptions{}, CoordinatorOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("shard 's0'"), std::string::npos);
}

/// Counts iterations and vetoes at a chosen k.
class CancelAt : public MiningObserver {
 public:
  explicit CancelAt(size_t k) : cancel_k_(k) {}
  bool OnIteration(const IterationStats& stats) override {
    max_k_seen_ = stats.k;
    return stats.k < cancel_k_;
  }
  size_t max_k_seen() const { return max_k_seen_; }

 private:
  size_t cancel_k_;
  size_t max_k_seen_ = 0;
};

TEST(DistributedMineTest, CancellationStopsWithinOneIteration) {
  TransactionDb txns = QuestDb(17);
  Database db;
  CancelAt observer(2);
  MiningOptions options;
  options.min_support = 0.02;
  options.observer = &observer;
  auto result =
      MineSlices(&db, SplitTxns(txns, 3), options, ShardRunOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  // Unprefixed: cancellation is the caller's veto, not a shard failure.
  EXPECT_EQ(result.status().message().find("shard '"), std::string::npos);
  EXPECT_EQ(observer.max_k_seen(), 2u);  // nothing ran past the veto
}

// A run the observer cancels mid-way ends on every shard, dropping the
// count its last pass started (spilled runs included, under a budget this
// small); the same backends then mine bit-identically to a fresh run.
TEST(DistributedMineTest, CancelledRunLeavesNoCountBehind) {
  const TransactionDb txns = QuestDb(19, 400);
  MiningOptions options;
  options.min_support = 0.02;
  ShardRunOptions run;
  run.storage = TableBacking::kHeap;
  DatabaseOptions db_options;
  db_options.sort_memory_bytes = 4 << 10;

  Database fresh_db(db_options);
  auto fresh = MineSlices(&fresh_db, SplitTxns(txns, 2), options, run);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_GE(fresh.value().iterations.size(), 4u);

  Database db(db_options);
  std::vector<std::unique_ptr<LocalShardBackend>> owned;
  std::vector<ShardBackend*> backends;
  const std::vector<TransactionDb> slices = SplitTxns(txns, 2);
  for (size_t i = 0; i < slices.size(); ++i) {
    owned.push_back(
        std::make_unique<LocalShardBackend>(&db, "s" + std::to_string(i)));
    BindSlice(&db, owned.back().get(), slices[i]);
    backends.push_back(owned.back().get());
  }
  CoordinatorOptions coord;
  coord.run = run;
  for (size_t cancel_k : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("cancelled at k=" + std::to_string(cancel_k));
    CancelAt observer(cancel_k);
    MiningOptions cancelled = options;
    cancelled.observer = &observer;
    auto stopped = DistributedMine(backends, cancelled, coord);
    ASSERT_TRUE(stopped.status().IsCancelled()) << stopped.status().ToString();

    auto again = DistributedMine(backends, options, coord);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(again.value().itemsets == fresh.value().itemsets);
    ExpectSameIterations(again.value(), fresh.value());
  }
}

// --------------------------------------------------------------------------
// ShardedDatabase over file shards.
// --------------------------------------------------------------------------

struct TempDir {
  TempDir() {
    path = testing::TempDir() + "shard_test_XXXXXX";
    EXPECT_NE(mkdtemp(path.data()), nullptr);
  }
  ~TempDir() {
    // Tests create a bounded, known set of files; remove then rmdir.
    for (const std::string& f : files) ::remove(f.c_str());
    ::remove(path.c_str());
  }
  std::string File(const std::string& name) {
    files.push_back(path + "/" + name);
    files.push_back(path + "/" + name + ".wal");
    return path + "/" + name;
  }
  std::string path;
  std::vector<std::string> files;
};

TEST(ShardedDatabaseTest, FileShardsMatchSingleNode) {
  TransactionDb txns = QuestDb(41);
  MiningOptions options;
  options.min_support = 0.04;
  auto expected = SingleNode(txns, options);
  ASSERT_TRUE(expected.ok());

  TempDir dir;
  std::vector<TransactionDb> slices = SplitTxns(txns, 3);
  ShardManifest manifest;
  for (size_t i = 0; i < slices.size(); ++i) {
    ShardMember member;
    member.id = static_cast<uint32_t>(i);
    member.kind = ShardMember::Kind::kFile;
    member.path = dir.File("s" + std::to_string(i) + ".db");
    {
      DatabaseOptions db_options;
      db_options.file_path = member.path;
      auto db_or = Database::Open(std::move(db_options));
      ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
      auto sales = LoadSalesTable(db_or.value().get(), "sales", slices[i],
                                  TableBacking::kHeap);
      ASSERT_TRUE(sales.ok()) << sales.status().ToString();
      ASSERT_TRUE(db_or.value()->Close().ok());
    }
    manifest.members.push_back(std::move(member));
  }

  auto sharded_or = ShardedDatabase::Open(manifest);
  ASSERT_TRUE(sharded_or.ok()) << sharded_or.status().ToString();
  ShardedDatabase& sharded = *sharded_or.value();

  auto result = sharded.Mine(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
  EXPECT_EQ(result.value().itemsets.num_transactions, txns.size());
  ExpectSameIterations(result.value(), expected.value());

  // A second run on the same handle must be identical too (scratch cleanup).
  auto again = sharded.Mine(options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value().itemsets == expected.value().itemsets);

  for (const auto& member : sharded.Health()) {
    EXPECT_TRUE(member.health.reachable) << member.name;
    EXPECT_GT(member.health.transactions, 0u) << member.name;
  }
  EXPECT_TRUE(sharded.Close().ok());
}

// A threaded "setm" on a WAL file database — what `MINE ... THREADS n` on a
// served .db runs. Its in-process shards build kHeap scratch relations in
// the file's buffer pool; they must match serial bit-for-bit, stay out of
// the catalog and out of the WAL, and leave a database that reopens intact.
TEST(ThreadedFileMineTest, WalDatabaseMatchesSerialAndKeepsCatalogClean) {
  TransactionDb txns = QuestDb(43, 300);
  MiningOptions options;
  options.min_support = 0.04;
  TempDir dir;
  const std::string path = dir.File("threaded.db");
  auto wal_page_records = [] {
    return obs::MetricsRegistry::Global()
        ->GetCounter("setm_wal_page_records_total", "")
        ->Value();
  };
  auto mine = [&](Database* db, const Table* sales, size_t threads,
                  CountMethod method) -> Result<MiningResult> {
    SetmOptions knobs;
    knobs.storage = TableBacking::kHeap;
    knobs.num_threads = threads;
    knobs.count_method = method;
    auto miner = MinerRegistry::Create("setm", db, knobs);
    if (!miner.ok()) return miner.status();
    MiningRequest request;
    request.table = sales;
    request.options = options;
    return miner.value()->Mine(request);
  };

  std::vector<std::string> tables;
  FrequentItemsets serial_itemsets;
  {
    DatabaseOptions db_options;
    db_options.file_path = path;
    auto db_or = Database::Open(std::move(db_options));
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Database* db = db_or.value().get();
    auto sales = LoadSalesTable(db, "sales", txns, TableBacking::kHeap);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    ASSERT_TRUE(db->Commit().ok());
    tables = db->catalog()->TableNames();

    for (CountMethod method : {CountMethod::kSortMerge, CountMethod::kHash}) {
      SCOPED_TRACE(method == CountMethod::kHash ? "hash" : "sort-merge");
      auto serial = mine(db, sales.value(), 1, method);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      const uint64_t wal_before = wal_page_records();
      auto threaded = mine(db, sales.value(), 3, method);
      ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
      ASSERT_TRUE(db->Commit().ok());
      // Shard scratch pages are tagged unlogged: committing after the mine
      // logs none of them.
      EXPECT_EQ(wal_page_records(), wal_before);

      EXPECT_TRUE(threaded.value().itemsets == serial.value().itemsets);
      EXPECT_EQ(threaded.value().itemsets.num_transactions, txns.size());
      ExpectSameIterations(threaded.value(), serial.value());
      EXPECT_EQ(db->catalog()->TableNames(), tables);
      serial_itemsets = serial.value().itemsets;
    }
    ASSERT_TRUE(db->Close().ok());
  }

  DatabaseOptions db_options;
  db_options.file_path = path;
  auto reopened_or = Database::Open(std::move(db_options));
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  Database* reopened = reopened_or.value().get();
  EXPECT_EQ(reopened->catalog()->TableNames(), tables);
  auto sales = reopened->catalog()->ResolveTable("sales");
  ASSERT_TRUE(sales.ok()) << sales.status().ToString();
  auto again = mine(reopened, sales.value(), 1, CountMethod::kSortMerge);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value().itemsets == serial_itemsets);
  EXPECT_TRUE(reopened->Close().ok());
}

TEST(ShardedDatabaseTest, MissingShardFileFailsOpenNamingTheShard) {
  TempDir dir;
  ShardManifest manifest;
  ShardMember member;
  member.id = 4;
  member.path = dir.path + "/enoent/nope.db";
  manifest.members.push_back(member);
  auto sharded_or = ShardedDatabase::Open(manifest);
  ASSERT_FALSE(sharded_or.ok());
  EXPECT_NE(sharded_or.status().message().find("shard 's4'"),
            std::string::npos)
      << sharded_or.status().ToString();
}

// --------------------------------------------------------------------------
// RemoteShardBackend against live server sessions.
// --------------------------------------------------------------------------

TEST(RemoteShardTest, SocketShardsMatchSingleNode) {
  TransactionDb txns = QuestDb(55);
  MiningOptions options;
  options.min_support = 0.04;
  auto expected = SingleNode(txns, options);
  ASSERT_TRUE(expected.ok());

  // One server database hosting all three slices as separate tables; each
  // backend gets its own connection, hence its own server-side shard run.
  Database db;
  std::vector<TransactionDb> slices = SplitTxns(txns, 3);
  for (size_t i = 0; i < slices.size(); ++i) {
    auto sales = LoadSalesTable(&db, "shard" + std::to_string(i), slices[i],
                                TableBacking::kMemory);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
  }
  ServerOptions server_options;
  server_options.port = 0;
  server_options.store_prefix = "";
  auto server_or = MiningServer::Create(&db, std::move(server_options));
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  ASSERT_TRUE(server_or.value()->Start().ok());
  MiningServer& server = *server_or.value();

  for (CountMethod method : {CountMethod::kSortMerge, CountMethod::kHash}) {
    std::vector<std::unique_ptr<RemoteShardBackend>> owned;
    std::vector<ShardBackend*> backends;
    for (size_t i = 0; i < slices.size(); ++i) {
      owned.push_back(std::make_unique<RemoteShardBackend>(
          "127.0.0.1", server.port(), "shard" + std::to_string(i)));
      backends.push_back(owned.back().get());
    }
    WorkerPool pool(backends.size());
    CoordinatorOptions coord;
    coord.run.count_method = method;
    coord.pool = &pool;
    auto result = DistributedMine(backends, options, coord);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().itemsets == expected.value().itemsets)
        << "method=" << (method == CountMethod::kHash ? "hash" : "sortmerge");
    EXPECT_EQ(result.value().itemsets.num_transactions, txns.size());
    ExpectSameIterations(result.value(), expected.value());
  }
  EXPECT_TRUE(server.Stop().ok());
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global()->GetCounter(name, "")->Value();
}

/// A started server over one in-memory database.
std::unique_ptr<MiningServer> StartServer(Database* db) {
  ServerOptions server_options;
  server_options.port = 0;
  server_options.store_prefix = "";
  auto server_or = MiningServer::Create(db, std::move(server_options));
  EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
  if (!server_or.ok()) return nullptr;
  EXPECT_TRUE(server_or.value()->Start().ok());
  return std::move(server_or).value();
}

// One shard call per iteration: a remote run of K iterations sends one
// LCOUNT and K MERGEs, and local and remote runs match a single node, with
// and without filter_r1, with and without a length limit.
TEST(RemoteShardTest, OneLcountAndOneMergePerIteration) {
  const TransactionDb txns = QuestDb(57);
  Database db;
  ASSERT_TRUE(LoadSalesTable(&db, "sales", txns, TableBacking::kMemory).ok());
  std::unique_ptr<MiningServer> server = StartServer(&db);
  ASSERT_NE(server, nullptr);

  for (bool filter_r1 : {false, true}) {
    for (size_t max_length : {size_t{0}, size_t{2}}) {
      SCOPED_TRACE("filter_r1=" + std::to_string(filter_r1) +
                   " max_length=" + std::to_string(max_length));
      MiningOptions options;
      options.min_support = 0.04;
      options.filter_r1 = filter_r1;
      options.max_pattern_length = max_length;
      auto expected = SingleNode(txns, options);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();

      Database local_db;
      auto local = MineSlices(&local_db, SplitTxns(txns, 3), options,
                              ShardRunOptions{});
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      EXPECT_TRUE(local.value().itemsets == expected.value().itemsets);
      ExpectSameIterations(local.value(), expected.value());

      const uint64_t lcounts = CounterValue("setm_srv_requests_lcount_total");
      const uint64_t merges = CounterValue("setm_srv_requests_merge_total");
      RemoteShardBackend backend("127.0.0.1", server->port(), "sales");
      auto remote = DistributedMine({&backend}, options, CoordinatorOptions{});
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      EXPECT_TRUE(remote.value().itemsets == expected.value().itemsets);
      ExpectSameIterations(remote.value(), expected.value());
      // A sole shard's pages are the single node's, page for page.
      for (size_t i = 0; i < expected.value().iterations.size(); ++i) {
        EXPECT_EQ(remote.value().iterations[i].r_pages,
                  expected.value().iterations[i].r_pages)
            << "k=" << i + 1;
      }
      EXPECT_EQ(CounterValue("setm_srv_requests_lcount_total") - lcounts, 1u);
      EXPECT_EQ(CounterValue("setm_srv_requests_merge_total") - merges,
                remote.value().iterations.size());
    }
  }
  EXPECT_TRUE(server->Stop().ok());
}

// A length-limited run counts no level past the limit, locally or on a
// remote shard (LCOUNT carries the limit as MAXK): the count rows move by
// exactly the R'_k rows the result reports (R_1's for k = 1).
TEST(RemoteShardTest, LengthLimitCountsNoUnreadLevel) {
  const TransactionDb txns = QuestDb(58);
  Database db;
  ASSERT_TRUE(LoadSalesTable(&db, "sales", txns, TableBacking::kMemory).ok());
  std::unique_ptr<MiningServer> server = StartServer(&db);
  ASSERT_NE(server, nullptr);

  MiningOptions options;
  options.min_support = 0.04;
  options.max_pattern_length = 2;
  const auto expect_counted_rows = [](const MiningResult& result,
                                      uint64_t counted) {
    ASSERT_EQ(result.iterations.size(), 2u);
    uint64_t r_prime_rows = 0;
    for (const IterationStats& stats : result.iterations) {
      r_prime_rows += stats.r_prime_rows;
    }
    EXPECT_GT(result.iterations[1].r_prime_rows, 0u);
    EXPECT_EQ(counted, r_prime_rows);
  };

  uint64_t before = CounterValue("setm_count_rows_total");
  auto local = SingleNode(txns, options);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  expect_counted_rows(local.value(),
                      CounterValue("setm_count_rows_total") - before);

  before = CounterValue("setm_count_rows_total");
  RemoteShardBackend backend("127.0.0.1", server->port(), "sales");
  auto remote = DistributedMine({&backend}, options, CoordinatorOptions{});
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  expect_counted_rows(remote.value(),
                      CounterValue("setm_count_rows_total") - before);
  EXPECT_TRUE(server->Stop().ok());
}

// A remote run ends with RELEASE: the server frees the run's R_1 and last
// R_k as soon as the coordinator is done, not at the next LCOUNT or the
// disconnect, so while the connection stays open the scratch pages held in
// the process (the setm_scratch_pages gauge) are back at their pre-run
// count after every run.
TEST(RemoteShardTest, EndRunReleasesTheServerRun) {
  const TransactionDb txns = QuestDb(59);
  Database db;
  ASSERT_TRUE(LoadSalesTable(&db, "sales", txns, TableBacking::kMemory).ok());
  std::unique_ptr<MiningServer> server = StartServer(&db);
  ASSERT_NE(server, nullptr);
  MiningOptions options;
  options.min_support = 0.04;
  auto expected = SingleNode(txns, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  obs::Gauge* scratch =
      obs::MetricsRegistry::Global()->GetGauge("setm_scratch_pages", "");
  const uint64_t releases = CounterValue("setm_srv_requests_release_total");
  RemoteShardBackend backend("127.0.0.1", server->port(), "sales");
  for (uint64_t run = 1; run <= 2; ++run) {
    const int64_t before = scratch->Value();
    auto remote = DistributedMine({&backend}, options, CoordinatorOptions{});
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_TRUE(remote.value().itemsets == expected.value().itemsets);
    ASSERT_GE(remote.value().iterations.size(), 3u);
    EXPECT_EQ(scratch->Value(), before) << "run " << run;
    EXPECT_EQ(CounterValue("setm_srv_requests_release_total") - releases,
              run);
  }
  EXPECT_TRUE(server->Stop().ok());
}

TEST(RemoteShardTest, DeadEndpointIsUnavailableBeforeAnyCounting) {
  // Bind an ephemeral port, then shut the server down: the port is known
  // dead, so the eager connect in BeginRun must fail the whole run.
  Database db;
  auto sales =
      LoadSalesTable(&db, "sales", QuestDb(2, 20), TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  ServerOptions server_options;
  server_options.port = 0;
  server_options.store_prefix = "";
  auto server_or = MiningServer::Create(&db, std::move(server_options));
  ASSERT_TRUE(server_or.ok());
  ASSERT_TRUE(server_or.value()->Start().ok());
  const uint16_t dead_port = server_or.value()->port();
  ASSERT_TRUE(server_or.value()->Stop().ok());

  RemoteShardBackend backend("127.0.0.1", dead_port, "sales", "s-gone");
  auto result =
      DistributedMine({&backend}, MiningOptions{}, CoordinatorOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("shard 's-gone'"),
            std::string::npos)
      << result.status().ToString();
}

/// A one-connection loopback server that answers each request line with
/// the next scripted reply ("ERR Internal ..." once the script runs out),
/// then drains until the client hangs up.
class ScriptedShardServer {
 public:
  explicit ScriptedShardServer(std::vector<std::string> replies)
      : replies_(std::move(replies)) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(listen(listen_fd_, 1), 0);
    EXPECT_EQ(
        getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~ScriptedShardServer() {
    thread_.join();
    close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void Serve() {
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 10000) != 1) return;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    timeval timeout{10, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::string pending;
    size_t next = 0;
    char buf[4096];
    while (true) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;  // the client hung up
      pending.append(buf, static_cast<size_t>(n));
      for (size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
        pending.erase(0, nl + 1);
        const std::string reply = next < replies_.size()
                                      ? replies_[next++]
                                      : "ERR Internal unscripted request\n";
        send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      }
    }
    close(fd);
  }

  std::vector<std::string> replies_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

// Shard replies are untrusted input: every out-of-range value must fail the
// run as Corruption naming the shard, never wrap, saturate, overflow or
// over-allocate. A reply's counts are bounded by its own rprime, the rows
// it counted, and its keys are checked against the level broadcast.
TEST(RemoteShardTest, OutOfRangeRepliesAreCorruptionNamingTheShard) {
  const std::string k1 = "OK lcount k=1 transactions=5 rprime=2 rbytes=0 "
                         "rpages=0\n";
  // C_1 = {1}, {2}: ids 0 and 1.
  const std::string k1_pairs =
      "OK lcount k=1 transactions=2 rprime=3 rbytes=0 rpages=0\n0 1 2\n"
      "0 2 1\n.\n";
  const std::string merge = "OK merge k=1 rows=3 bytes=0 pages=0 rprime=1\n";
  const std::vector<std::vector<std::string>> scripts = {
      // An item beyond int32 would be cast to item 0.
      {k1 + "0 4294967296 1\n.\n"},
      // A parent beyond int32, or a negative parent or item.
      {k1 + "2147483648 1 1\n.\n"},
      {k1 + "-1 1 1\n.\n"},
      {k1 + "0 -1 1\n.\n"},
      // A count beyond int64 saturates in strtoll.
      {k1 + "0 1 99999999999999999999\n.\n"},
      // Two in-range int64 counts of one key would overflow the merged sum.
      {k1 + "0 1 9223372036854775807\n0 1 9223372036854775807\n.\n"},
      // A count above the reply's rprime, alone or in sum, and a count of 0.
      {k1 + "0 1 3\n.\n"},
      {k1 + "0 1 2\n0 2 1\n.\n"},
      {k1 + "0 1 0\n.\n"},
      // Two or four fields.
      {k1 + "1 1\n.\n"},
      {k1 + "0 1 1 1\n.\n"},
      // A repeated or descending key.
      {k1 + "0 1 1\n0 1 1\n.\n"},
      {k1 + "0 2 1\n0 1 1\n.\n"},
      // C_1's keys extend the empty itemset, id 0, only.
      {k1 + "1 1 1\n.\n"},
      // Info fields: negative, beyond uint64, beyond 2^32 transactions,
      // rprime beyond 2^52.
      {"OK lcount k=1 transactions=-1 rprime=1 rbytes=0 rpages=0\n.\n"},
      {"OK lcount k=1 transactions=5 rprime=2 rbytes=18446744073709551616 "
       "rpages=0\n0 1 1\n.\n"},
      {"OK lcount k=1 transactions=4294967297 rprime=1 rbytes=0 "
       "rpages=0\n0 1 1\n.\n"},
      {"OK lcount k=1 transactions=1 rprime=4503599627370497 rbytes=0 "
       "rpages=0\n0 1 1\n.\n"},
      // MERGE K 1 replies carry R'_2's counts, keyed by C_1 id and bounded
      // by their own rprime: a count above it, a parent past C_1's ids, an
      // item outside C_1 or not above its parent's, a wrong field count
      // and a missing rprime are each Corruption.
      {k1_pairs, merge + "0 2 2\n.\n"},
      {k1_pairs, merge + "2 3 1\n.\n"},
      {k1_pairs, merge + "0 3 1\n.\n"},
      {k1_pairs, merge + "0 1 1\n.\n"},
      {k1_pairs, merge + "1 2 1\n.\n"},
      {k1_pairs, merge + "0 2\n.\n"},
      {k1_pairs, merge + "0 2 1 1\n.\n"},
      {k1_pairs, "OK merge k=1 rows=3 bytes=0 pages=0\n0 2 1\n.\n"},
  };
  for (const std::vector<std::string>& script : scripts) {
    ScriptedShardServer server(script);
    RemoteShardBackend backend("127.0.0.1", server.port(), "sales",
                               "scripted", /*timeout_ms=*/5000);
    auto result =
        DistributedMine({&backend}, MiningOptions{}, CoordinatorOptions{});
    ASSERT_FALSE(result.ok()) << script.back();
    EXPECT_TRUE(result.status().IsCorruption())
        << script.back() << " -> " << result.status().ToString();
    EXPECT_NE(result.status().message().find("shard 'scripted'"),
              std::string::npos)
        << result.status().ToString();
  }
}

// A SALES table may repeat a (trans_id, item) row, which setm counts row
// by row, so an itemset's count can exceed the shard's transactions: {2}
// is counted 8 times in 5 transactions here. Remote shards, one or two,
// must agree with a local mine of the whole table in itemsets and in every
// per-iteration stat.
TEST(RemoteShardTest, RepeatedSalesRowsMatchALocalMine) {
  Database db;
  const auto table = [&](const std::string& name,
                         std::vector<std::pair<int32_t, int32_t>> rows) {
    auto sales = db.catalog()->CreateTable(name, SetmMiner::SalesSchema(),
                                           TableBacking::kMemory);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    for (const auto& [tid, item] : rows) {
      const Tuple row({Value::Int32(tid), Value::Int32(item)});
      ASSERT_TRUE(sales.value()->Insert(row).ok());
    }
  };
  // 4 x {1, 2, 2, 3} and 1 x {1, 3}, whole and split after transaction 2.
  std::vector<std::pair<int32_t, int32_t>> whole;
  for (int32_t tid = 1; tid <= 4; ++tid) {
    for (int32_t item : {1, 2, 2, 3}) whole.emplace_back(tid, item);
  }
  whole.emplace_back(5, 1);
  whole.emplace_back(5, 3);
  table("sales", whole);
  table("part0", {whole.begin(), whole.begin() + 8});
  table("part1", {whole.begin() + 8, whole.end()});
  std::unique_ptr<MiningServer> server = StartServer(&db);
  ASSERT_NE(server, nullptr);

  MiningOptions options;
  options.min_support_count = 2;
  auto sales = db.catalog()->ResolveTable("sales");
  ASSERT_TRUE(sales.ok());
  auto local = SetmMiner(&db).MineTable(*sales.value(), options);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_EQ(local.value().itemsets.TotalPatterns(), 7u);
  ASSERT_EQ(local.value().itemsets.CountOf({2}), 8);

  for (const std::vector<std::string>& tables :
       {std::vector<std::string>{"sales"},
        std::vector<std::string>{"part0", "part1"}}) {
    SCOPED_TRACE(std::to_string(tables.size()) + " remote shards");
    std::vector<std::unique_ptr<RemoteShardBackend>> owned;
    std::vector<ShardBackend*> backends;
    for (const std::string& name : tables) {
      owned.push_back(std::make_unique<RemoteShardBackend>(
          "127.0.0.1", server->port(), name));
      backends.push_back(owned.back().get());
    }
    auto remote = DistributedMine(backends, options, CoordinatorOptions{});
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_TRUE(remote.value().itemsets == local.value().itemsets);
    ExpectSameIterations(remote.value(), local.value());
  }
  EXPECT_TRUE(server->Stop().ok());
}

// --------------------------------------------------------------------------
// Shard manifest codec.
// --------------------------------------------------------------------------

TEST(ShardManifestTest, SerializeParseRoundTrip) {
  ShardManifest manifest;
  manifest.epoch = 7;
  ShardMember file;
  file.id = 0;
  file.kind = ShardMember::Kind::kFile;
  file.path = "/data/s0.db";
  file.table = "sales";
  file.has_range = true;
  file.tid_min = 0;
  file.tid_max = 333;
  ShardMember remote;
  remote.id = 2;
  remote.kind = ShardMember::Kind::kRemote;
  remote.host = "10.0.0.8";
  remote.port = 7001;
  remote.table = "tx";
  manifest.members = {file, remote};

  auto parsed_or = ShardManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().ToString();
  const ShardManifest& parsed = parsed_or.value();
  EXPECT_EQ(parsed.epoch, 7u);
  ASSERT_EQ(parsed.members.size(), 2u);
  EXPECT_EQ(parsed.members[0].id, 0u);
  EXPECT_EQ(parsed.members[0].kind, ShardMember::Kind::kFile);
  EXPECT_EQ(parsed.members[0].path, "/data/s0.db");
  EXPECT_TRUE(parsed.members[0].has_range);
  EXPECT_EQ(parsed.members[0].tid_min, 0);
  EXPECT_EQ(parsed.members[0].tid_max, 333);
  EXPECT_EQ(parsed.members[1].kind, ShardMember::Kind::kRemote);
  EXPECT_EQ(parsed.members[1].host, "10.0.0.8");
  EXPECT_EQ(parsed.members[1].port, 7001);
  EXPECT_EQ(parsed.members[1].table, "tx");
}

TEST(ShardManifestTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",                                               // no header
      "setm-shards v2\nepoch 1\nshards 0\n",            // unknown version
      "setm-shards v1\nepoch 0\nshards 0\n",            // epoch must be >= 1
      "setm-shards v1\nepoch 1\nshards 2\n"
      "shard 0 file /a.db\nshard 0 file /b.db\n",       // duplicate id
      "setm-shards v1\nepoch 1\nshards 1\n"
      "shard 0 tape /a\n",                              // unknown kind
      "setm-shards v1\nepoch 1\nshards 1\n"
      "shard 0 remote nocolonhere\n",                   // endpoint sans port
      "setm-shards v1\nepoch 1\nshards 1\n"
      "shard 0 remote h:99999\n",                       // port out of range
      "setm-shards v1\nepoch 1\nshards 1\n"
      "shard 0 file /a.db tids 5\n",                    // half a range
  };
  for (const char* text : bad) {
    auto parsed = ShardManifest::Parse(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalidArgument())
          << parsed.status().ToString();
    }
  }
}

TEST(ShardManifestTest, DeclaredCountMismatchIsCorruption) {
  auto parsed = ShardManifest::Parse(
      "setm-shards v1\nepoch 1\nshards 2\nshard 0 file /a.db\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
}

TEST(ShardManifestTest, SaveLoadAndMissingFile) {
  TempDir dir;
  ShardManifest manifest;
  manifest.epoch = 3;
  ShardMember member;
  member.id = 1;
  member.path = "/data/only.db";
  manifest.members.push_back(member);

  const std::string path = dir.path + "/shards.manifest";
  dir.files.push_back(path);
  ASSERT_TRUE(manifest.Save(path).ok());
  auto loaded = ShardManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().epoch, 3u);
  ASSERT_EQ(loaded.value().members.size(), 1u);
  EXPECT_EQ(loaded.value().members[0].path, "/data/only.db");

  auto missing = ShardManifest::Load(dir.path + "/does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsIOError()) << missing.status().ToString();
}

// --------------------------------------------------------------------------
// Registry wiring: the equivalence suite sweeps these automatically; here we
// only pin the metadata that drives that sweep.
// --------------------------------------------------------------------------

TEST(ShardRegistryTest, SetmAndAprioriHonorThreads) {
  bool saw_setm = false;
  bool saw_apriori = false;
  for (const MinerInfo& info : MinerRegistry::List()) {
    if (info.name == "setm") {
      saw_setm = true;
      EXPECT_TRUE(info.honors_storage);
      EXPECT_TRUE(info.honors_count_method);
      EXPECT_TRUE(info.honors_threads);
    }
    if (info.name == "apriori") {
      saw_apriori = true;
      EXPECT_TRUE(info.honors_threads);
    }
  }
  EXPECT_TRUE(saw_setm);
  EXPECT_TRUE(saw_apriori);
}

}  // namespace
}  // namespace setm
