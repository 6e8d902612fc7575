// Second SQL engine suite: aggregate corner cases, coercions, and planner
// paths not covered by sql_test.cc.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/paper_example.h"
#include "core/setm.h"
#include "sql/engine.h"

namespace setm::sql {
namespace {

class SqlEngine2Test : public testing::Test {
 protected:
  SqlEngine2Test() : engine_(&db_) {}

  QueryResult MustRun(const std::string& sql, const Params& params = {}) {
    auto r = engine_.Execute(sql, params);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  Database db_;
  SqlEngine engine_;
};

TEST_F(SqlEngine2Test, HavingWithStrictGreaterGoesThroughResidualFilter) {
  MustRun("CREATE TABLE t (a INT)");
  MustRun("INSERT INTO t VALUES (1), (1), (2), (2), (2), (3)");
  // "> 2" cannot fold into the aggregation min_count (which handles >=);
  // it must work through the residual HAVING filter.
  auto r = MustRun(
      "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY a");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt32(), 2);
  EXPECT_EQ(r.rows[0].value(1).AsInt64(), 3);
}

TEST_F(SqlEngine2Test, HavingEqualityAndComposite) {
  MustRun("CREATE TABLE t (a INT)");
  MustRun("INSERT INTO t VALUES (1), (1), (2), (3), (3), (3)");
  auto r = MustRun(
      "SELECT a, COUNT(*) FROM t GROUP BY a "
      "HAVING COUNT(*) >= 2 AND COUNT(*) <= 2 ORDER BY a");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt32(), 1);
}

TEST_F(SqlEngine2Test, HavingParameterResidual) {
  MustRun("CREATE TABLE t (a INT)");
  MustRun("INSERT INTO t VALUES (5), (5), (6)");
  auto r = MustRun(
      "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) < :cap",
      {{"cap", Value::Int64(2)}});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt32(), 6);
}

TEST_F(SqlEngine2Test, FractionalHavingBoundRoundsUp) {
  MustRun("CREATE TABLE t (a INT)");
  MustRun("INSERT INTO t VALUES (1), (1), (2)");
  // HAVING COUNT(*) >= 1.5 keeps groups with count >= 2.
  auto r = MustRun(
      "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) >= :minsupport",
      {{"minsupport", Value::Double(1.5)}});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt32(), 1);
}

TEST_F(SqlEngine2Test, AggregateOrderByCountColumnViaCountStar) {
  MustRun("CREATE TABLE t (a INT)");
  MustRun("INSERT INTO t VALUES (7), (8), (8), (9), (9), (9)");
  auto r = MustRun(
      "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY COUNT(*)");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].value(0).AsInt32(), 7);
  EXPECT_EQ(r.rows[2].value(0).AsInt32(), 9);
}

TEST_F(SqlEngine2Test, GroupByMultipleColumns) {
  MustRun("CREATE TABLE t (a INT, b INT)");
  MustRun("INSERT INTO t VALUES (1,1), (1,1), (1,2), (2,1)");
  auto r = MustRun(
      "SELECT a, b, COUNT(*) FROM t GROUP BY a, b ORDER BY a, b");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].value(2).AsInt64(), 2);
}

TEST_F(SqlEngine2Test, SelectLiteralColumn) {
  MustRun("CREATE TABLE t (a INT)");
  MustRun("INSERT INTO t VALUES (1), (2)");
  auto r = MustRun("SELECT a, 42 FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].value(1).AsInt64(), 42);
}

TEST_F(SqlEngine2Test, InsertParameterizedValues) {
  MustRun("CREATE TABLE t (a INT, b DOUBLE)");
  MustRun("INSERT INTO t VALUES (:x, :y)",
          {{"x", Value::Int64(7)}, {"y", Value::Double(2.5)}});
  auto r = MustRun("SELECT a, b FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt32(), 7);
  EXPECT_DOUBLE_EQ(r.rows[0].value(1).AsDouble(), 2.5);
}

TEST_F(SqlEngine2Test, IntToDoubleCoercionInInsert) {
  MustRun("CREATE TABLE t (d DOUBLE)");
  MustRun("INSERT INTO t VALUES (3)");
  auto r = MustRun("SELECT d FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0].value(0).AsDouble(), 3.0);
}

TEST_F(SqlEngine2Test, DoubleToIntCoercionRejected) {
  MustRun("CREATE TABLE t (a INT)");
  EXPECT_FALSE(engine_.Execute("INSERT INTO t VALUES (1.5)").ok());
}

TEST_F(SqlEngine2Test, MemoryVsHeapTablesBehaveIdentically) {
  MustRun("CREATE MEMORY TABLE m (a INT)");
  MustRun("CREATE TABLE h (a INT)");
  for (const char* table : {"m", "h"}) {
    MustRun(std::string("INSERT INTO ") + table + " VALUES (3), (1), (2)");
    auto r = MustRun(std::string("SELECT a FROM ") + table + " ORDER BY a");
    ASSERT_EQ(r.rows.size(), 3u);
    EXPECT_EQ(r.rows[0].value(0).AsInt32(), 1);
    EXPECT_EQ(r.rows[2].value(0).AsInt32(), 3);
  }
}

TEST_F(SqlEngine2Test, WhereOnStringColumn) {
  MustRun("CREATE TABLE t (name VARCHAR(10), n INT)");
  MustRun("INSERT INTO t VALUES ('bread', 1), ('milk', 2), ('bread', 3)");
  auto r = MustRun("SELECT n FROM t WHERE name = 'bread' ORDER BY n");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[1].value(0).AsInt32(), 3);
}

TEST_F(SqlEngine2Test, JoinOnStringKeys) {
  MustRun("CREATE TABLE l (k VARCHAR(5), v INT)");
  MustRun("CREATE TABLE r (k VARCHAR(5), w INT)");
  MustRun("INSERT INTO l VALUES ('a', 1), ('b', 2)");
  MustRun("INSERT INTO r VALUES ('b', 20), ('c', 30)");
  auto q = MustRun("SELECT l.v, r.w FROM l, r WHERE l.k = r.k");
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_EQ(q.rows[0].value(0).AsInt32(), 2);
  EXPECT_EQ(q.rows[0].value(1).AsInt32(), 20);
}

TEST_F(SqlEngine2Test, ConstantPredicateFalseYieldsEmpty) {
  MustRun("CREATE TABLE t (a INT)");
  MustRun("INSERT INTO t VALUES (1)");
  auto r = MustRun("SELECT a FROM t WHERE 1 = 2");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(SqlEngine2Test, FourWayJoinChain) {
  for (const char* ddl :
       {"CREATE TABLE t1 (a INT)", "CREATE TABLE t2 (a INT, b INT)",
        "CREATE TABLE t3 (b INT, c INT)", "CREATE TABLE t4 (c INT)"}) {
    MustRun(ddl);
  }
  MustRun("INSERT INTO t1 VALUES (1), (2)");
  MustRun("INSERT INTO t2 VALUES (1, 10), (2, 20)");
  MustRun("INSERT INTO t3 VALUES (10, 100), (20, 200)");
  MustRun("INSERT INTO t4 VALUES (100)");
  auto r = MustRun(
      "SELECT t1.a FROM t1, t2, t3, t4 "
      "WHERE t1.a = t2.a AND t2.b = t3.b AND t3.c = t4.c");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt32(), 1);
}

TEST_F(SqlEngine2Test, InsertSelectArityMismatchRejected) {
  MustRun("CREATE TABLE src (a INT, b INT)");
  MustRun("CREATE TABLE dst (a INT)");
  MustRun("INSERT INTO src VALUES (1, 2)");
  EXPECT_FALSE(engine_.Execute("INSERT INTO dst SELECT a, b FROM src").ok());
}

TEST_F(SqlEngine2Test, DistinctAcrossJoin) {
  MustRun("CREATE TABLE s (tid INT, item INT)");
  MustRun("INSERT INTO s VALUES (1,1), (1,2), (2,1), (2,2), (3,1)");
  auto r = MustRun(
      "SELECT DISTINCT a.item FROM s a, s b "
      "WHERE a.tid = b.tid AND b.item > a.item");
  // Items that appear as the smaller element of a pair: only item 1.
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt32(), 1);
}

TEST_F(SqlEngine2Test, EmptyTableAggregatesToNothing) {
  MustRun("CREATE TABLE t (a INT)");
  auto r = MustRun("SELECT a, COUNT(*) FROM t GROUP BY a");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(SqlEngine2Test, OrderByUnknownColumnFails) {
  MustRun("CREATE TABLE t (a INT)");
  EXPECT_FALSE(engine_.Execute("SELECT a FROM t ORDER BY zzz").ok());
}

// The Section 3.1 formulation of C_2, executed literally: a three-relation
// FROM, an equality chain plus one inequality, GROUP BY on two columns and
// HAVING COUNT(*) >= :minsupport, inserted into a MEMORY table. On the
// paper's example it yields the example's six frequent pairs.
TEST_F(SqlEngine2Test, Section31PairQueryOnThePaperExample) {
  const TransactionDb txns = PaperExampleTransactions();
  ASSERT_TRUE(
      LoadSalesTable(&db_, "sales", txns, TableBacking::kMemory).ok());
  const Params params = {
      {"minsupport", Value::Int64(ResolveMinSupportCount(
                         PaperExampleOptions(), txns.size()))}};
  MustRun("CREATE MEMORY TABLE c1 (item1 INT, cnt BIGINT)");
  MustRun(
      "INSERT INTO c1 SELECT r1.item, COUNT(*) FROM sales r1 "
      "GROUP BY r1.item HAVING COUNT(*) >= :minsupport",
      params);
  MustRun("CREATE MEMORY TABLE c2 (item1 INT, item2 INT, cnt BIGINT)");
  MustRun(
      "INSERT INTO c2 SELECT r1.item, r2.item, COUNT(*) "
      "FROM c1 c, sales r1, sales r2 "
      "WHERE r1.trans_id = r2.trans_id AND r1.item = c.item1 "
      "AND r2.item > r1.item "
      "GROUP BY r1.item, r2.item HAVING COUNT(*) >= :minsupport",
      params);
  auto r = MustRun("SELECT item1, item2, cnt FROM c2 ORDER BY item1, item2");
  std::vector<std::tuple<int32_t, int32_t, int64_t>> pairs;
  for (const Tuple& row : r.rows) {
    pairs.emplace_back(row.value(0).AsInt32(), row.value(1).AsInt32(),
                       row.value(2).AsInt64());
  }
  // AB, AC, BC, DE, DF and EF, each in three transactions.
  const std::vector<std::tuple<int32_t, int32_t, int64_t>> expected = {
      {0, 1, 3}, {0, 2, 3}, {1, 2, 3}, {3, 4, 3}, {3, 5, 3}, {4, 5, 3}};
  EXPECT_EQ(pairs, expected);
}

TEST_F(SqlEngine2Test, DeleteThenReuseTable) {
  MustRun("CREATE TABLE t (a INT)");
  MustRun("INSERT INTO t VALUES (1)");
  MustRun("DELETE FROM t");
  MustRun("INSERT INTO t VALUES (2)");
  auto r = MustRun("SELECT a FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt32(), 2);
}

}  // namespace
}  // namespace setm::sql
