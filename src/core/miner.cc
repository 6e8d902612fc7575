#include "core/miner.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "relational/table.h"

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
  // SALES's rows in (trans_id, item) order, a transaction at a time.
  std::vector<std::pair<TransactionId, ItemId>> rows;
  rows.reserve(sales.num_rows());
  SETM_RETURN_IF_ERROR(ForEachInt32Pair(sales, [&rows](int32_t tid,
                                                       int32_t item) {
    rows.emplace_back(tid, item);
  }));
  std::sort(rows.begin(), rows.end());
  TransactionDb txns;
  for (size_t row = 0; row < rows.size();) {
    Transaction t;
    t.id = rows[row].first;
    for (; row < rows.size() && rows[row].first == t.id; ++row) {
      // Duplicate (trans_id, item) rows are rejected, not silently merged:
      // the miners with a native table pipeline (setm, setm-sql) count
      // every row, so deduplicating here would make the same MiningRequest
      // yield different supports per algorithm. SALES is set-valued — a
      // duplicate row is malformed input, and the caller should hear
      // about it.
      if (!t.items.empty() && t.items.back() == rows[row].second) {
        return Status::InvalidArgument(
            "SALES row (" + std::to_string(t.id) + ", " +
            std::to_string(rows[row].second) +
            ") appears more than once; duplicate rows would be counted by "
            "row-oriented miners and must be removed first");
      }
      t.items.push_back(rows[row].second);
    }
    txns.push_back(std::move(t));
  }
  SETM_RETURN_IF_ERROR(ValidateTransactions(txns));
  return txns;
}

}  // namespace setm
