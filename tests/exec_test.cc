// Unit tests for src/exec: expressions, external sort, joins, aggregation.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "exec/exec_context.h"
#include "exec/expression.h"
#include "exec/external_sort.h"
#include "exec/operators.h"
#include "relational/database.h"
#include "relational/table.h"

namespace setm {
namespace {

Schema TwoIntSchema() {
  return Schema(
      {Column{"a", ValueType::kInt32}, Column{"b", ValueType::kInt32}});
}

Tuple Row(int a, int b) { return Tuple({Value::Int32(a), Value::Int32(b)}); }

std::unique_ptr<MemTable> MakeTable(const std::vector<std::pair<int, int>>& rows) {
  auto t = std::make_unique<MemTable>("t", TwoIntSchema());
  for (auto [a, b] : rows) EXPECT_TRUE(t->Insert(Row(a, b)).ok());
  return t;
}

std::vector<std::pair<int, int>> Drain(TupleIterator* it) {
  std::vector<std::pair<int, int>> out;
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    out.emplace_back(row.value(0).AsInt32(), row.value(1).AsInt32());
  }
  return out;
}

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

TEST(ExpressionTest, ColumnAndConst) {
  Tuple row = Row(3, 9);
  EXPECT_EQ(Col(1)->Eval(row).value().AsInt32(), 9);
  EXPECT_EQ(Const(Value::Int32(5))->Eval(row).value().AsInt32(), 5);
}

TEST(ExpressionTest, Comparisons) {
  Tuple row = Row(3, 9);
  auto check = [&](BinaryOp op, bool expected) {
    auto e = Binary(op, Col(0), Col(1));  // 3 op 9
    EXPECT_EQ(ValueIsTrue(e->Eval(row).value()), expected)
        << BinaryOpName(op);
  };
  check(BinaryOp::kEq, false);
  check(BinaryOp::kNe, true);
  check(BinaryOp::kLt, true);
  check(BinaryOp::kLe, true);
  check(BinaryOp::kGt, false);
  check(BinaryOp::kGe, false);
}

TEST(ExpressionTest, LogicalShortCircuit) {
  Tuple row = Row(1, 0);
  auto t = [] { return Const(Value::Int32(1)); };
  auto f = [] { return Const(Value::Int32(0)); };
  EXPECT_TRUE(ValueIsTrue(
      Binary(BinaryOp::kOr, t(), f())->Eval(row).value()));
  EXPECT_FALSE(ValueIsTrue(
      Binary(BinaryOp::kAnd, f(), t())->Eval(row).value()));
  // RHS with an out-of-range column would error if evaluated; short-circuit
  // must avoid it.
  auto bad = Col(99);
  auto and_sc = Binary(BinaryOp::kAnd, f(), std::move(bad));
  ASSERT_TRUE(and_sc->Eval(row).ok());
  EXPECT_FALSE(ValueIsTrue(and_sc->Eval(row).value()));
}

TEST(ExpressionTest, ColumnOutOfRangeErrors) {
  Tuple row = Row(1, 2);
  EXPECT_FALSE(Col(5)->Eval(row).ok());
}

TEST(ExpressionTest, ConjoinAll) {
  EXPECT_EQ(ConjoinAll({}), nullptr);
  std::vector<ExprPtr> two;
  two.push_back(Const(Value::Int32(1)));
  two.push_back(Const(Value::Int32(1)));
  auto e = ConjoinAll(std::move(two));
  EXPECT_TRUE(ValueIsTrue(e->Eval(Row(0, 0)).value()));
}

// --------------------------------------------------------------------------
// Filter / Project
// --------------------------------------------------------------------------

TEST(OperatorTest, FilterKeepsMatching) {
  auto t = MakeTable({{1, 10}, {2, 20}, {3, 30}, {4, 40}});
  FilterIterator filter(t->Scan(),
                        Binary(BinaryOp::kGt, Col(1), Const(Value::Int32(15))));
  EXPECT_EQ(Drain(&filter),
            (std::vector<std::pair<int, int>>{{2, 20}, {3, 30}, {4, 40}}));
}

TEST(OperatorTest, ProjectReorders) {
  auto t = MakeTable({{1, 10}, {2, 20}});
  std::vector<ExprPtr> exprs;
  exprs.push_back(Col(1));
  exprs.push_back(Col(0));
  Schema out({Column{"b", ValueType::kInt32}, Column{"a", ValueType::kInt32}});
  ProjectIterator project(t->Scan(), std::move(exprs), out);
  EXPECT_EQ(Drain(&project),
            (std::vector<std::pair<int, int>>{{10, 1}, {20, 2}}));
}

// --------------------------------------------------------------------------
// External sort
// --------------------------------------------------------------------------

class ExternalSortTest : public testing::Test {
 protected:
  ExternalSortTest() {
    DatabaseOptions options;
    options.sort_memory_bytes = 1 << 20;
    db_ = std::make_unique<Database>(options);
    ctx_ = ExecContext::From(db_.get());
  }
  std::unique_ptr<Database> db_;
  ExecContext ctx_;
};

TEST_F(ExternalSortTest, InMemorySort) {
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  for (int i : {5, 3, 9, 1, 7}) ASSERT_TRUE(sort.Add(Row(i, 0)).ok());
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  auto rows = Drain(it.value().get());
  EXPECT_EQ(rows, (std::vector<std::pair<int, int>>{
                      {1, 0}, {3, 0}, {5, 0}, {7, 0}, {9, 0}}));
  EXPECT_EQ(sort.stats().spilled_runs, 0u);
}

TEST_F(ExternalSortTest, SpillingSortIsCorrect) {
  ctx_.sort_memory_bytes = 256;  // force many runs
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0, 1}));
  Rng rng(77);
  std::vector<std::pair<int, int>> expected;
  for (int i = 0; i < 5000; ++i) {
    int a = static_cast<int>(rng.Uniform(100));
    int b = static_cast<int>(rng.Uniform(100));
    expected.emplace_back(a, b);
    ASSERT_TRUE(sort.Add(Row(a, b)).ok());
  }
  std::sort(expected.begin(), expected.end());
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(Drain(it.value().get()), expected);
  EXPECT_GT(sort.stats().spilled_runs, 1u);
  EXPECT_GT(sort.stats().merge_passes, 0u);  // > 64 runs cascades
}

TEST_F(ExternalSortTest, SortIsStable) {
  ctx_.sort_memory_bytes = 128;
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));  // key: a only
  // Payload b records arrival order within each key.
  for (int round = 0; round < 200; ++round) {
    for (int key = 0; key < 3; ++key) {
      ASSERT_TRUE(sort.Add(Row(key, round)).ok());
    }
  }
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  auto rows = Drain(it.value().get());
  ASSERT_EQ(rows.size(), 600u);
  int prev_key = -1, prev_payload = -1;
  for (const auto& [key, payload] : rows) {
    if (key == prev_key) {
      EXPECT_GT(payload, prev_payload) << "stability violated at key " << key;
    } else {
      EXPECT_EQ(key, prev_key + 1);
    }
    prev_key = key;
    prev_payload = payload;
  }
}

// A tiny temp pool caps the merge fan-in, so a moderate run count forces
// cascaded merge passes; order and stability must survive the cascade.
TEST_F(ExternalSortTest, CascadedMergeKeepsOrderAndStability) {
  DatabaseOptions options;
  options.temp_pool_frames = 8;  // effective fan-in: 8 - 4 = 4 runs
  options.sort_memory_bytes = 256;
  Database small(options);
  ExecContext ctx = ExecContext::From(&small);

  ExternalSort sort(ctx, TwoIntSchema(), TupleComparator({0}));  // key: a only
  // Payload b records arrival order within each key.
  for (int round = 0; round < 400; ++round) {
    for (int key = 0; key < 4; ++key) {
      ASSERT_TRUE(sort.Add(Row(key, round)).ok());
    }
  }
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  // Runs far exceed the fan-in of 4, so at least two cascade passes ran.
  EXPECT_GT(sort.stats().spilled_runs, 16u);
  EXPECT_GE(sort.stats().merge_passes, 2u);
  auto rows = Drain(it.value().get());
  ASSERT_EQ(rows.size(), 1600u);
  int prev_key = -1, prev_payload = -1;
  for (const auto& [key, payload] : rows) {
    if (key == prev_key) {
      EXPECT_GT(payload, prev_payload) << "stability violated at key " << key;
    } else {
      EXPECT_EQ(key, prev_key + 1);
    }
    prev_key = key;
    prev_payload = payload;
  }
}

// API misuse must surface as Status in every build mode, not corrupt state.
TEST_F(ExternalSortTest, AddAfterFinishFailsWithStatus) {
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  ASSERT_TRUE(sort.Add(Row(1, 0)).ok());
  ASSERT_TRUE(sort.Finish().ok());
  Status late = sort.Add(Row(2, 0));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kInternal);
}

TEST_F(ExternalSortTest, DoubleFinishFailsWithStatus) {
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  ASSERT_TRUE(sort.Add(Row(1, 0)).ok());
  ASSERT_TRUE(sort.Finish().ok());
  auto again = sort.Finish();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInternal);
}

TEST_F(ExternalSortTest, EmptyInput) {
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  Tuple row;
  auto more = it.value()->Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
}

TEST_F(ExternalSortTest, SpillIoLandsInLedger) {
  ctx_.sort_memory_bytes = 256;
  const uint64_t writes_before = db_->io_stats()->page_writes +
                                 db_->io_stats()->pages_allocated;
  ExternalSort sort(ctx_, TwoIntSchema(), TupleComparator({0}));
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE(sort.Add(Row(3000 - i, i)).ok());
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok());
  Drain(it.value().get());
  EXPECT_GT(db_->io_stats()->page_writes + db_->io_stats()->pages_allocated,
            writes_before);
}

// IntRowSort is ExternalSort's algorithm over fixed-width int rows: on the
// same rows, budget and temp pool it must produce the same order (stability
// included) and the same SortStats, in memory and through cascaded merge
// passes. The parameter is the sort budget in bytes.
class IntRowSortTest : public testing::TestWithParam<size_t> {};

TEST_P(IntRowSortTest, MatchesExternalSort) {
  DatabaseOptions options;
  options.temp_pool_frames = 8;  // effective fan-in: 4 runs
  options.sort_memory_bytes = GetParam();
  Database db(options);
  const ExecContext ctx = ExecContext::From(&db);

  // Width 4, keyed on columns [1, 3); column 3 records arrival order, so
  // the comparison also checks stability.
  const Schema schema({Column{"t", ValueType::kInt32},
                       Column{"i1", ValueType::kInt32},
                       Column{"i2", ValueType::kInt32},
                       Column{"seq", ValueType::kInt32}});
  ExternalSort tuples(ctx, schema, TupleComparator({1, 2}));
  IntRowSort ints(ctx, 4, 1, 3);
  Rng rng(GetParam());
  for (int32_t seq = 0; seq < 6000; ++seq) {
    const int32_t row[4] = {static_cast<int32_t>(rng.Uniform(1000)),
                            static_cast<int32_t>(rng.Uniform(12)),
                            static_cast<int32_t>(rng.Uniform(12)) - 6, seq};
    ASSERT_TRUE(ints.Add(row).ok());
    ASSERT_TRUE(tuples
                    .Add(Tuple({Value::Int32(row[0]), Value::Int32(row[1]),
                                Value::Int32(row[2]), Value::Int32(row[3])}))
                    .ok());
  }
  auto tuple_it = tuples.Finish();
  ASSERT_TRUE(tuple_it.ok()) << tuple_it.status().ToString();
  auto int_it = ints.Finish();
  ASSERT_TRUE(int_it.ok()) << int_it.status().ToString();

  std::vector<std::vector<int32_t>> expected;
  Tuple t;
  while (true) {
    auto more = tuple_it.value()->Next(&t);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    expected.push_back({t.value(0).AsInt32(), t.value(1).AsInt32(),
                        t.value(2).AsInt32(), t.value(3).AsInt32()});
  }
  std::vector<std::vector<int32_t>> actual;
  ASSERT_TRUE(ForEachRow(int_it.value().get(), [&actual](const int32_t* r) {
                actual.emplace_back(r, r + 4);
                return Status::OK();
              }).ok());
  EXPECT_EQ(actual, expected);
  ASSERT_EQ(actual.size(), 6000u);

  const SortStats& a = ints.stats();
  const SortStats& b = tuples.stats();
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.spilled_runs, b.spilled_runs);
  EXPECT_EQ(a.merge_passes, b.merge_passes);
  if (GetParam() < 4096) {
    EXPECT_GE(a.merge_passes, 2u);
  } else {
    EXPECT_EQ(a.spilled_runs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, IntRowSortTest,
    testing::Values(size_t{1} << 20, size_t{320}, size_t{1000}),
    [](const testing::TestParamInfo<size_t>& param_info) {
      return "Bytes" + std::to_string(param_info.param);
    });

TEST(IntRowSortApiTest, EmptyInputAndMisuse) {
  Database db;
  IntRowSort sort(ExecContext::From(&db), 2, 0, 2);
  auto cursor = sort.Finish();
  ASSERT_TRUE(cursor.ok());
  const int32_t* row = nullptr;
  auto more = cursor.value()->Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
  const int32_t late[2] = {1, 2};
  EXPECT_EQ(sort.Add(late).code(), StatusCode::kInternal);
  EXPECT_EQ(sort.AddSortedRun({1, 2}).code(), StatusCode::kInternal);
  EXPECT_EQ(sort.Finish().status().code(), StatusCode::kInternal);
}

// A run handed over already sorted joins the one merge, after the rows
// buffered before it: the output is the stable sort of every row in the
// order it arrived, and the run counts as a spilled run of its rows.
TEST(IntRowSortApiTest, SortedRunsJoinTheMerge) {
  DatabaseOptions options;
  options.temp_pool_frames = 8;  // effective fan-in: 4 runs
  options.sort_memory_bytes = 400;
  Database db(options);
  IntRowSort sort(ExecContext::From(&db), 2, 0, 1);
  Rng rng(5);
  std::vector<std::vector<int32_t>> all;  // (key, arrival) in arrival order
  const auto add = [&](int32_t key) {
    const int32_t row[2] = {key, static_cast<int32_t>(all.size())};
    all.push_back({row[0], row[1]});
    return sort.Add(row);
  };
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(add(static_cast<int32_t>(rng.Uniform(20))).ok());
  }
  for (int run = 0; run < 6; ++run) {
    std::vector<int32_t> sorted_run;
    for (int32_t key = 0; key < 20; key += 1 + run) {
      sorted_run.insert(sorted_run.end(),
                        {key, static_cast<int32_t>(all.size())});
      all.push_back({key, static_cast<int32_t>(all.size())});
    }
    ASSERT_TRUE(sort.AddSortedRun(sorted_run).ok());
    ASSERT_TRUE(add(static_cast<int32_t>(rng.Uniform(20))).ok());
  }
  const uint64_t spilled_before_finish = sort.stats().spilled_runs;
  auto cursor = sort.Finish();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<std::vector<int32_t>> actual;
  ASSERT_TRUE(ForEachRow(cursor.value().get(), [&actual](const int32_t* r) {
                actual.emplace_back(r, r + 2);
                return Status::OK();
              }).ok());
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) { return a[0] < b[0]; });
  EXPECT_EQ(actual, all);
  EXPECT_EQ(sort.stats().rows, all.size());
  EXPECT_GE(spilled_before_finish, 6u + 1);  // the six runs, after spills
  EXPECT_GE(sort.stats().merge_passes, 1u);
}

TEST_F(ExternalSortTest, SortIteratorWrapsChild) {
  auto t = MakeTable({{3, 0}, {1, 1}, {2, 2}});
  SortIterator sorted(ctx_, t->Scan(), TupleComparator({0}));
  EXPECT_EQ(Drain(&sorted),
            (std::vector<std::pair<int, int>>{{1, 1}, {2, 2}, {3, 0}}));
}

// --------------------------------------------------------------------------
// Merge join
// --------------------------------------------------------------------------

std::vector<std::vector<int>> DrainWide(TupleIterator* it) {
  std::vector<std::vector<int>> out;
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    std::vector<int> vals;
    for (size_t i = 0; i < row.NumValues(); ++i) {
      vals.push_back(row.value(i).AsInt32());
    }
    out.push_back(std::move(vals));
  }
  return out;
}

TEST(MergeJoinTest, OneToOne) {
  auto l = MakeTable({{1, 100}, {2, 200}, {4, 400}});
  auto r = MakeTable({{1, -1}, {3, -3}, {4, -4}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0}, {0}, nullptr);
  EXPECT_EQ(DrainWide(&join), (std::vector<std::vector<int>>{
                                  {1, 100, 1, -1}, {4, 400, 4, -4}}));
}

TEST(MergeJoinTest, DuplicatesOnBothSidesCrossProduct) {
  auto l = MakeTable({{1, 1}, {1, 2}, {2, 5}});
  auto r = MakeTable({{1, 10}, {1, 20}, {2, 30}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0}, {0}, nullptr);
  EXPECT_EQ(DrainWide(&join),
            (std::vector<std::vector<int>>{{1, 1, 1, 10},
                                           {1, 1, 1, 20},
                                           {1, 2, 1, 10},
                                           {1, 2, 1, 20},
                                           {2, 5, 2, 30}}));
}

TEST(MergeJoinTest, ResidualFiltersWithinJoin) {
  // The SETM pattern: join on trans_id (col 0), keep q.b > p.b.
  auto l = MakeTable({{1, 10}, {1, 20}});
  auto r = MakeTable({{1, 10}, {1, 20}, {1, 30}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0}, {0},
                         Binary(BinaryOp::kGt, Col(3), Col(1)));
  EXPECT_EQ(DrainWide(&join),
            (std::vector<std::vector<int>>{{1, 10, 1, 20},
                                           {1, 10, 1, 30},
                                           {1, 20, 1, 30}}));
}

TEST(MergeJoinTest, EmptyInputs) {
  auto l = MakeTable({});
  auto r = MakeTable({{1, 1}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0}, {0}, nullptr);
  EXPECT_TRUE(DrainWide(&join).empty());
  auto l2 = MakeTable({{1, 1}});
  auto r2 = MakeTable({});
  MergeJoinIterator join2(l2->Scan(), r2->Scan(), {0}, {0}, nullptr);
  EXPECT_TRUE(DrainWide(&join2).empty());
}

TEST(MergeJoinTest, MultiColumnKeys) {
  auto l = MakeTable({{1, 1}, {1, 2}, {2, 1}});
  auto r = MakeTable({{1, 1}, {1, 3}, {2, 1}});
  MergeJoinIterator join(l->Scan(), r->Scan(), {0, 1}, {0, 1}, nullptr);
  EXPECT_EQ(DrainWide(&join), (std::vector<std::vector<int>>{
                                  {1, 1, 1, 1}, {2, 1, 2, 1}}));
}

TEST(NestedLoopJoinTest, CrossWithResidual) {
  auto l = MakeTable({{1, 0}, {2, 0}});
  auto r = MakeTable({{1, 0}, {2, 0}, {3, 0}});
  NestedLoopJoinIterator join(l->Scan(), r->Scan(),
                              Binary(BinaryOp::kLt, Col(0), Col(2)));
  EXPECT_EQ(DrainWide(&join),
            (std::vector<std::vector<int>>{{1, 0, 2, 0},
                                           {1, 0, 3, 0},
                                           {2, 0, 3, 0}}));
}

// --------------------------------------------------------------------------
// Aggregation
// --------------------------------------------------------------------------

TEST(GroupCountTest, CountsSortedGroups) {
  auto t = MakeTable({{1, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 0}, {3, 0}});
  SortedGroupCountIterator counts(t->Scan(), {0}, 0);
  Tuple row;
  std::vector<std::pair<int, int64_t>> out;
  while (true) {
    auto more = counts.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    out.emplace_back(row.value(0).AsInt32(), row.value(1).AsInt64());
  }
  EXPECT_EQ(out, (std::vector<std::pair<int, int64_t>>{{1, 2}, {2, 1}, {3, 3}}));
}

TEST(GroupCountTest, HavingMinCountDropsGroups) {
  auto t = MakeTable({{1, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 0}, {3, 0}});
  SortedGroupCountIterator counts(t->Scan(), {0}, 2);
  Tuple row;
  std::vector<int> kept;
  while (true) {
    auto more = counts.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    kept.push_back(row.value(0).AsInt32());
  }
  EXPECT_EQ(kept, (std::vector<int>{1, 3}));
}

TEST(GroupCountTest, MultiColumnGroups) {
  auto t = MakeTable({{1, 1}, {1, 1}, {1, 2}, {2, 1}});
  SortedGroupCountIterator counts(t->Scan(), {0, 1}, 0);
  Tuple row;
  int groups = 0;
  while (true) {
    auto more = counts.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    ++groups;
  }
  EXPECT_EQ(groups, 3);
  EXPECT_EQ(counts.schema().NumColumns(), 3u);
  EXPECT_EQ(counts.schema().column(2).name, "count");
}

TEST(GroupCountTest, EmptyInputProducesNothing) {
  auto t = MakeTable({});
  SortedGroupCountIterator counts(t->Scan(), {0}, 0);
  Tuple row;
  auto more = counts.Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
}

// --------------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------------

TEST(HelpersTest, Collect) {
  auto src = MakeTable({{1, 2}, {3, 4}});
  auto it = src->Scan();
  auto rows = Collect(it.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[1].value(0).AsInt32(), 3);
}

}  // namespace
}  // namespace setm
