// Tests for the hash-based join and count alternatives and their
// result-equivalence with the paper's sort-based pipeline.

#include <gtest/gtest.h>

#include "core/paper_example.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "exec/hash_operators.h"
#include "exec/operators.h"
#include "sql/engine.h"

namespace setm {
namespace {

Schema TwoIntSchema() {
  return Schema(
      {Column{"a", ValueType::kInt32}, Column{"b", ValueType::kInt32}});
}

std::unique_ptr<MemTable> MakeTable(
    const std::vector<std::pair<int, int>>& rows) {
  auto t = std::make_unique<MemTable>("t", TwoIntSchema());
  for (auto [a, b] : rows) {
    EXPECT_TRUE(t->Insert(Tuple({Value::Int32(a), Value::Int32(b)})).ok());
  }
  return t;
}

std::vector<std::vector<int>> DrainWide(TupleIterator* it) {
  std::vector<std::vector<int>> out;
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    std::vector<int> vals;
    for (size_t i = 0; i < row.NumValues(); ++i) {
      vals.push_back(static_cast<int>(row.value(i).IsNumeric()
                                          ? row.value(i).NumericInt()
                                          : 0));
    }
    out.push_back(std::move(vals));
  }
  return out;
}

// --------------------------------------------------------------------------
// HashJoinIterator
// --------------------------------------------------------------------------

TEST(HashJoinTest, MatchesMergeJoinOnRandomData) {
  Rng rng(66);
  std::vector<std::pair<int, int>> left_rows, right_rows;
  for (int i = 0; i < 500; ++i) {
    left_rows.emplace_back(static_cast<int>(rng.Uniform(50)), i);
    right_rows.emplace_back(static_cast<int>(rng.Uniform(50)), -i);
  }
  std::sort(left_rows.begin(), left_rows.end());
  std::sort(right_rows.begin(), right_rows.end());
  auto l1 = MakeTable(left_rows);
  auto r1 = MakeTable(right_rows);
  auto l2 = MakeTable(left_rows);
  auto r2 = MakeTable(right_rows);

  MergeJoinIterator merge(l1->Scan(), r1->Scan(), {0}, {0}, nullptr);
  HashJoinIterator hash(l2->Scan(), r2->Scan(), {0}, {0}, nullptr);
  auto a = DrainWide(&merge);
  auto b = DrainWide(&hash);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(HashJoinTest, ResidualApplies) {
  auto l = MakeTable({{1, 10}, {1, 20}});
  auto r = MakeTable({{1, 15}});
  HashJoinIterator join(l->Scan(), r->Scan(), {0}, {0},
                        Binary(BinaryOp::kGt, Col(3), Col(1)));
  // Keep rows where right payload (15) > left payload.
  EXPECT_EQ(DrainWide(&join),
            (std::vector<std::vector<int>>{{1, 10, 1, 15}}));
}

TEST(HashJoinTest, NoMatches) {
  auto l = MakeTable({{1, 0}});
  auto r = MakeTable({{2, 0}});
  HashJoinIterator join(l->Scan(), r->Scan(), {0}, {0}, nullptr);
  EXPECT_TRUE(DrainWide(&join).empty());
}

// --------------------------------------------------------------------------
// SETM with hash counting; SQL engine with hash joins.
// --------------------------------------------------------------------------

TEST(SetmCountMethodTest, HashCountingMatchesSortCounting) {
  QuestOptions gen;
  gen.num_transactions = 400;
  gen.avg_transaction_size = 5;
  gen.num_items = 30;
  gen.seed = 77;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.03;

  Database db1, db2;
  SetmOptions sort_opts;
  sort_opts.count_method = CountMethod::kSortMerge;
  SetmOptions hash_opts;
  hash_opts.count_method = CountMethod::kHash;
  auto a = SetmMiner(&db1, sort_opts).Mine(txns, options);
  auto b = SetmMiner(&db2, hash_opts).Mine(txns, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value().itemsets == b.value().itemsets);
}

TEST(SetmCountMethodTest, PaperExampleUnderHashCounting) {
  Database db;
  SetmOptions opts;
  opts.count_method = CountMethod::kHash;
  auto result =
      SetmMiner(&db, opts).Mine(PaperExampleTransactions(), PaperExampleOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().itemsets.OfSize(2).size(), 6u);
  EXPECT_EQ(result.value().itemsets.OfSize(3).size(), 1u);
}

TEST(SqlJoinStrategyTest, HashJoinGivesSameQueryResults) {
  Database db;
  sql::SqlEngine merge_engine(&db);
  sql::SqlEngineOptions hash_options;
  hash_options.join_strategy = sql::JoinStrategy::kHash;
  sql::SqlEngine hash_engine(&db, hash_options);

  ASSERT_TRUE(
      merge_engine.Execute("CREATE TABLE sales (trans_id INT, item INT)").ok());
  ASSERT_TRUE(merge_engine
                  .Execute("INSERT INTO sales VALUES (1,1),(1,2),(1,3),"
                           "(2,1),(2,2),(3,2),(3,3)")
                  .ok());
  const std::string query =
      "SELECT r1.trans_id, r1.item, r2.item FROM sales r1, sales r2 "
      "WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item "
      "ORDER BY r1.trans_id, r1.item, r2.item";
  auto a = merge_engine.Execute(query);
  auto b = hash_engine.Execute(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().rows.size(), b.value().rows.size());
  for (size_t i = 0; i < a.value().rows.size(); ++i) {
    EXPECT_TRUE(a.value().rows[i] == b.value().rows[i]);
  }
}

}  // namespace
}  // namespace setm
