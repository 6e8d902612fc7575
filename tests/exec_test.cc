// Unit tests for src/exec: expressions, external sort, joins, aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>

#include "common/random.h"
#include "core/itemset_counts.h"
#include "core/setm_pipeline.h"
#include "exec/exec_context.h"
#include "exec/expression.h"
#include "exec/external_sort.h"
#include "exec/operators.h"
#include "exec/worker_pool.h"
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

// The merge fan-in is kMergeFanIn (64) runs at every pool size, since no
// run reader holds a pin: even on an 8-frame pool, 64 spilled runs go
// straight into the final merge and 65 take exactly one cascade pass. Each
// (int32, int32) row is charged 8 bytes, so an 8-byte budget spills every
// row as its own run.
TEST(SortFanInTest, SixtyFourRunsMergeAtOnceOnAnEightFramePool) {
  ASSERT_EQ(kMergeFanIn, 64u);
  DatabaseOptions options;
  options.pool_frames = 8;
  options.sort_memory_bytes = 8;
  Database db(options);
  for (int32_t runs : {64, 65}) {
    SCOPED_TRACE("runs=" + std::to_string(runs));
    ExternalSort sort(ExecContext::From(&db), TwoIntSchema(),
                      TupleComparator({0}));
    std::vector<std::pair<int, int>> expected;
    for (int32_t i = 0; i < runs; ++i) {
      const int key = (i * 37) % runs;  // keys: a permutation
      ASSERT_TRUE(sort.Add(Row(key, i)).ok());
      expected.emplace_back(key, i);
    }
    std::sort(expected.begin(), expected.end());
    auto it = sort.Finish();
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    EXPECT_EQ(Drain(it.value().get()), expected);
    EXPECT_EQ(sort.stats().spilled_runs, static_cast<uint64_t>(runs));
    EXPECT_EQ(sort.stats().merge_passes, runs > 64 ? 1u : 0u);
  }
}

// More runs than the fan-in of 64 force cascaded merge passes, on a pool of
// any size; order and stability must survive the cascade.
TEST_F(ExternalSortTest, CascadedMergeKeepsOrderAndStability) {
  DatabaseOptions options;
  options.pool_frames = 8;
  options.sort_memory_bytes = 16;  // two rows per run
  Database small(options);
  ExecContext ctx = ExecContext::From(&small);

  ExternalSort sort(ctx, TwoIntSchema(), TupleComparator({0}));  // key: a only
  // Payload b records arrival order within each key.
  for (int round = 0; round < 2100; ++round) {
    for (int key = 0; key < 4; ++key) {
      ASSERT_TRUE(sort.Add(Row(key, round)).ok());
    }
  }
  auto it = sort.Finish();
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  // 4,200 runs exceed 64 * 64, so at least two cascade passes ran.
  EXPECT_GT(sort.stats().spilled_runs, 64u * 64u);
  EXPECT_GE(sort.stats().merge_passes, 2u);
  auto rows = Drain(it.value().get());
  ASSERT_EQ(rows.size(), 8400u);
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

// The budgeted C_k count's spilled runs are packed IntRelation pages in the
// context's pool. A run of n rows takes ceil(n / RowsPerPage(width)) pages,
// and each page is written once: the merge reads runs back and never
// rewrites a page. These tests run on a 6-frame pool, which still merges
// kMergeFanIn runs at a time.
class SpillRunFormatTest : public testing::Test {
 protected:
  static constexpr size_t kFanIn = kMergeFanIn;

  SpillRunFormatTest() : backend_(&stats_), pool_(&backend_, 6) {
    ctx_.pool = &pool_;
  }

  /// Pages of a run of `rows` rows of `width` ints.
  static uint64_t RunPages(uint64_t rows, size_t width) {
    const uint64_t per_page = IntRelation::RowsPerPage(width);
    return (rows + per_page - 1) / per_page;
  }

  /// The pages a count whose spilled runs hold `runs` rows (in spill order)
  /// and share no key allocates: one packed page list per spilled run and
  /// per run each cascade pass merges. Sets `*passes` to the cascade's
  /// passes.
  static uint64_t PackedRunPages(std::vector<uint64_t> runs, size_t width,
                                 uint64_t* passes) {
    const auto pages = [width](uint64_t rows) { return RunPages(rows, width); };
    uint64_t total = 0;
    for (uint64_t rows : runs) total += pages(rows);
    *passes = 0;
    while (runs.size() > kFanIn) {
      ++*passes;
      std::vector<uint64_t> next;
      for (size_t i = 0; i < runs.size(); i += kFanIn) {
        const size_t take = std::min(kFanIn, runs.size() - i);
        uint64_t rows = 0;
        for (size_t j = i; j < i + take; ++j) rows += runs[j];
        if (take > 1) total += pages(rows);
        next.push_back(rows);
      }
      runs = std::move(next);
    }
    return total;
  }

  /// Pages handed out: fresh allocations plus reused ids. A merged run
  /// releases its pages, and the runs written after it reuse their ids.
  uint64_t PagesHandedOut() const {
    return stats_.pages_allocated.load() + stats_.pages_reused.load();
  }

  /// Flushes the pool and checks that no page was written twice: each
  /// write is paid for by an allocation or a reuse.
  void ExpectEachPageWrittenOnce() {
    ASSERT_TRUE(pool_.FlushAll().ok());
    EXPECT_GT(stats_.page_writes.load(), 0u);
    EXPECT_LE(stats_.page_writes.load(), PagesHandedOut());
  }

  IoStats stats_;
  MemoryBackend backend_;
  BufferPool pool_;
  ExecContext ctx_;
};

/// Finishes `count` with no floor into PatternCounts whose items are the
/// keys, in the key order Finish() emits them.
Status FinishInto(BudgetedCount* count, std::vector<PatternCount>* out) {
  return count->Finish(/*min_count=*/1, [&](const ItemId* key, int64_t n) {
    out->push_back(
        PatternCount{std::vector<ItemId>(key, key + count->k()), n});
  });
}

// The budgeted C_k count spills its (item_1, item_2, count) entries as
// packed runs, merged in a cascade that writes each page once. All keys
// are distinct, so a merged run holds the rows of the runs it merged.
TEST_F(SpillRunFormatTest, BudgetedCountRunsArePackedPages) {
  // A budget of exactly a new k = 2 table's allocation never lets it grow,
  // so every run holds the same number of entries.
  const size_t budget = ItemsetCounts(2).bytes();
  const uint64_t per_run = ItemsetCounts::MaxEntriesWithin(2, budget);
  // Enough items that their pairs spill more than 64 * 64 full runs.
  ItemId items = 2;
  while (static_cast<uint64_t>(items) * (items - 1) / 2 <=
         (kFanIn * kFanIn + 1) * per_run) {
    ++items;
  }
  BudgetedCount count(ctx_, 2, budget);
  std::vector<PatternCount> expected;
  for (ItemId a = 0; a < items; ++a) {
    for (ItemId b = a + 1; b < items; ++b) {
      const ItemId pair[2] = {a, b};
      ASSERT_TRUE(count.Add(pair).ok());
      expected.push_back(PatternCount{{a, b}, 1});
    }
  }
  const CountStats& stats = count.stats();
  ASSERT_GT(stats.spilled_runs, kFanIn * kFanIn);
  ASSERT_EQ(stats.spilled_entries, stats.spilled_runs * per_run);

  std::vector<PatternCount> out;
  ASSERT_TRUE(FinishInto(&count, &out).ok());
  EXPECT_EQ(out, expected);

  uint64_t passes = 0;
  const uint64_t pages = PackedRunPages(
      std::vector<uint64_t>(stats.spilled_runs, per_run), 3, &passes);
  EXPECT_GE(passes, 2u);
  EXPECT_EQ(stats.merge_passes, passes);
  EXPECT_EQ(PagesHandedOut(), pages);
  ExpectEachPageWrittenOnce();
}

// The final merge reads kMergeFanIn runs plus the table's remainder: 64
// spilled runs merge with no cascade pass, and one more run takes exactly
// one, which merges the first 64 runs and passes the 65th on as it is.
TEST_F(SpillRunFormatTest, SixtyFourRunsAndTheRemainderMergeAtOnce) {
  const size_t budget = ItemsetCounts(1).bytes();
  const uint64_t per_run = ItemsetCounts::MaxEntriesWithin(1, budget);
  for (uint64_t runs : {kFanIn, kFanIn + 1}) {
    SCOPED_TRACE("runs=" + std::to_string(runs));
    const uint64_t handed_out_before = PagesHandedOut();
    BudgetedCount count(ctx_, 1, budget);
    std::vector<PatternCount> expected;
    // runs * per_run distinct keys, and one more for the remainder: each
    // run's last key finds the table full.
    for (ItemId key = 0; key <= static_cast<ItemId>(runs * per_run); ++key) {
      ASSERT_TRUE(count.Add(&key).ok());
      expected.push_back(PatternCount{{key}, 1});
    }
    std::vector<PatternCount> out;
    ASSERT_TRUE(FinishInto(&count, &out).ok());
    EXPECT_EQ(out, expected);
    const CountStats& stats = count.stats();
    EXPECT_EQ(stats.spilled_runs, runs);
    EXPECT_EQ(stats.merge_passes, runs > kFanIn ? 1u : 0u);
    const uint64_t merged = runs > kFanIn ? RunPages(kFanIn * per_run, 2) : 0;
    EXPECT_EQ(PagesHandedOut() - handed_out_before,
              runs * RunPages(per_run, 2) + merged);
  }
  ExpectEachPageWrittenOnce();
}

// Keys that repeat across runs are summed at every cascade pass, not only
// in the final merge. Keys cycle through two sets of per_run keys, so the
// runs alternate between the sets and every group of runs holds both:
// each merged run holds every key once, on one page, and each key's total
// is exact.
TEST_F(SpillRunFormatTest, CascadeSumsKeysRepeatedAcrossRuns) {
  const size_t budget = ItemsetCounts(1).bytes();
  const uint64_t per_run = ItemsetCounts::MaxEntriesWithin(1, budget);
  const ItemId keys = static_cast<ItemId>(2 * per_run);
  ASSERT_LE(static_cast<uint64_t>(keys), IntRelation::RowsPerPage(2));
  constexpr int64_t kCycles = 66;
  BudgetedCount count(ctx_, 1, budget);
  for (int64_t cycle = 0; cycle < kCycles; ++cycle) {
    for (ItemId key = 0; key < keys; ++key) {
      ASSERT_TRUE(count.Add(&key).ok());
    }
  }
  const CountStats& stats = count.stats();
  // Every key set but the last one's is spilled; the last is the table's.
  const uint64_t runs = 2 * kCycles - 1;
  ASSERT_EQ(stats.spilled_runs, runs);
  ASSERT_EQ(stats.spilled_entries, runs * per_run);

  std::vector<PatternCount> out;
  ASSERT_TRUE(FinishInto(&count, &out).ok());
  std::vector<PatternCount> expected;
  for (ItemId key = 0; key < keys; ++key) {
    expected.push_back(PatternCount{{key}, kCycles});
  }
  EXPECT_EQ(out, expected);
  EXPECT_EQ(stats.merge_passes, 1u);
  // 131 runs merge as groups of 64, 64 and 3, each into one page.
  const uint64_t groups = (runs + kFanIn - 1) / kFanIn;
  EXPECT_EQ(PagesHandedOut(), runs * RunPages(per_run, 2) + groups);
  ExpectEachPageWrittenOnce();
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

// --------------------------------------------------------------------------
// WorkerPool / TaskGroup
// --------------------------------------------------------------------------

/// A one-worker pool whose worker is held on a latch until Release(), so
/// every group task is left to the waiting caller.
class HeldPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::promise<void> holding;
    pool_.Submit([this, &holding] {
      holding.set_value();
      released_.wait();
    });
    holding.get_future().wait();
  }
  void TearDown() override { Release(); }

  void Release() {
    if (!released_set_) release_.set_value();
    released_set_ = true;
  }

  static uint64_t Observations(const char* histogram) {
    return obs::MetricsRegistry::Global()
        ->GetHistogram(histogram, "")
        ->Snapshot()
        .count;
  }

  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
  bool released_set_ = false;
  WorkerPool pool_{1};
};

// The only worker is busy, so the group completes on the calling thread:
// Wait runs every unstarted task itself before it blocks.
TEST_F(HeldPoolTest, WaitRunsTheGroupOnTheCaller) {
  TaskGroup group(&pool_);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  for (int i = 0; i < 3; ++i) {
    group.Submit([&] {
      if (std::this_thread::get_id() == caller) ++on_caller;
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(on_caller.load(), 3);
}

// A group destroyed while its runners are still queued behind the held
// worker: the runners find its queue drained and run nothing (ASan and
// TSan check that they touch no freed group). Each task is observed once,
// by the caller that ran it, and the drained runners record nothing.
TEST_F(HeldPoolTest, GroupOutlivedByItsQueuedRunners) {
  const uint64_t waits = Observations("setm_worker_queue_wait_micros");
  const uint64_t runs = Observations("setm_worker_task_micros");
  int ran = 0;
  {
    TaskGroup group(&pool_);
    for (int i = 0; i < 4; ++i) {
      group.Submit([&ran] {
        ++ran;
        return Status::OK();
      });
    }
  }
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(Observations("setm_worker_queue_wait_micros") - waits, 4u);
  EXPECT_EQ(Observations("setm_worker_task_micros") - runs, 4u);
  // Once released, the worker runs the four runners, which find the queue
  // drained, and then a last task; only the held task's run and the last
  // task add observations.
  Release();
  std::promise<void> drained;
  pool_.Submit([&drained] { drained.set_value(); });
  drained.get_future().wait();
  while (Observations("setm_worker_task_micros") - runs < 6) {
    std::this_thread::yield();
  }
  EXPECT_EQ(Observations("setm_worker_queue_wait_micros") - waits, 5u);
  EXPECT_EQ(Observations("setm_worker_task_micros") - runs, 6u);
}

// An error from a task the waiting caller ran is the group's.
TEST_F(HeldPoolTest, CallerRunTaskErrorIsReturned) {
  TaskGroup group(&pool_);
  group.Submit([] { return Status::OK(); });
  group.Submit([] { return Status::InvalidArgument("task 2 failed"); });
  group.Submit([] { return Status::OK(); });
  const Status s = group.Wait();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(s.message(), "task 2 failed");
  EXPECT_EQ(group.Wait().message(), "task 2 failed");
}

// Groups on one pool see only their own tasks, and the caller and the
// workers together run each task exactly once.
TEST(TaskGroupTest, GroupsShareAPoolAndRunEachTaskOnce) {
  WorkerPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  TaskGroup first(&pool);
  TaskGroup second(&pool);
  for (size_t i = 0; i < hits.size(); ++i) {
    TaskGroup& group = i % 2 == 0 ? first : second;
    group.Submit([&hits, i] {
      ++hits[i];
      return i == 7 ? Status::Internal("odd one out") : Status::OK();
    });
  }
  EXPECT_TRUE(first.Wait().ok());
  EXPECT_EQ(second.Wait().code(), StatusCode::kInternal);
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

}  // namespace
}  // namespace setm
