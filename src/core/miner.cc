#include "core/miner.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "relational/table.h"
#include "shard/local_backend.h"

namespace setm {

Status ValidateMiningRequest(const MiningRequest& request) {
  if (request.transactions != nullptr && request.table != nullptr) {
    return Status::InvalidArgument(
        "MiningRequest sets both transactions and table; exactly one source "
        "is allowed");
  }
  if (request.transactions == nullptr && request.table == nullptr) {
    return Status::InvalidArgument(
        "MiningRequest has no source; set transactions or table");
  }
  return Status::OK();
}

Result<TransactionDb> TransactionsFromTable(const Table& sales) {
  shard::SalesIntake intake;
  SETM_RETURN_IF_ERROR(shard::ExtractRows(sales, &intake));
  const std::vector<shard::ShardRow> rows = intake.TakeSorted();
  // Duplicate (trans_id, item) rows are rejected, not silently merged: the
  // miners with a native table pipeline (setm, setm-sql) count every row,
  // so deduplicating here would make the same MiningRequest yield
  // different supports per algorithm. SALES is set-valued — a duplicate
  // row is malformed input, and the caller should hear about it.
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].tid == rows[i - 1].tid && rows[i].item == rows[i - 1].item) {
      return Status::InvalidArgument(
          "SALES row (" + std::to_string(rows[i].tid) + ", " +
          std::to_string(rows[i].item) +
          ") appears more than once; duplicate rows would be counted by "
          "row-oriented miners and must be removed first");
    }
  }

  TransactionDb txns;
  for (size_t i = 0; i < rows.size();) {
    Transaction t;
    t.id = rows[i].tid;
    size_t j = i;
    while (j < rows.size() && rows[j].tid == t.id) {
      t.items.push_back(rows[j].item);
      ++j;
    }
    txns.push_back(std::move(t));
    i = j;
  }
  SETM_RETURN_IF_ERROR(ValidateTransactions(txns));
  return txns;
}

}  // namespace setm
