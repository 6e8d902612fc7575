#ifndef SETM_SQL_ENGINE_H_
#define SETM_SQL_ENGINE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/exec_context.h"
#include "relational/database.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace setm::sql {

/// Named query parameters, e.g. {{"minsupport", Value::Int64(1000)}} for the
/// paper's `HAVING COUNT(*) >= :minsupport`.
using Params = std::map<std::string, Value>;

/// Outcome of one statement.
struct QueryResult {
  /// Result schema (SELECT only).
  Schema schema;
  /// Result rows (SELECT only).
  std::vector<Tuple> rows;
  /// Rows inserted/deleted for DML, 0 for DDL/SELECT.
  uint64_t rows_affected = 0;
};

/// Plans and executes SQL statements against a Database.
///
/// Planning follows the textbook recipe the paper leans on: single-table
/// predicates are pushed to scans; equality predicates between tables become
/// sort-merge joins (sort both sides on the join keys, then merge-scan),
/// the paper's plan; table pairs without an equality predicate fall back
/// to a nested-loop cross join;
/// GROUP BY/COUNT(*) is sort-based aggregation, with
/// `HAVING COUNT(*) >= x` folded into the aggregation as the paper's
/// minimum-support filter. Joins are composed left-deep in FROM order.
///
///     SqlEngine engine(&db);
///     engine.Execute("CREATE TABLE sales (trans_id INT, item INT)");
///     engine.Execute("INSERT INTO sales VALUES (10, 1), (10, 2)");
///     auto r = engine.Execute(
///         "SELECT item, COUNT(*) FROM sales GROUP BY item "
///         "HAVING COUNT(*) >= :minsupport",
///         {{"minsupport", Value::Int64(2)}});
class SqlEngine {
 public:
  explicit SqlEngine(Database* db) : db_(db) {}

  /// Parses and executes one statement.
  Result<QueryResult> Execute(const std::string& sql,
                              const Params& params = {});

  /// Executes an already-parsed statement.
  Result<QueryResult> ExecuteStatement(const Statement& stmt,
                                       const Params& params);

  Database* db() const { return db_; }

 private:
  Result<QueryResult> RunSelect(const SelectStatement& stmt,
                                const Params& params);
  Result<QueryResult> RunCreate(const CreateTableStatement& stmt);
  Result<QueryResult> RunInsert(const InsertStatement& stmt,
                                const Params& params);

  Database* db_;
};

/// Coerces `v` to `target` (integer width changes with range checks,
/// int -> double). Fails with InvalidArgument on lossy conversions.
Result<Value> CoerceValue(const Value& v, ValueType target);

}  // namespace setm::sql

#endif  // SETM_SQL_ENGINE_H_
