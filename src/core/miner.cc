#include "core/miner.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "relational/int_relation.h"
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
  // The intake's one in-memory R_1 is SALES in (trans_id, item) order;
  // its C_1 count is never finished.
  shard::ShardRunOptions run;
  run.count_method = CountMethod::kHash;  // never spills
  shard::SalesIntake intake(ExecContext{}, run, 1, sales.num_rows());
  SETM_RETURN_IF_ERROR(shard::ExtractRows(sales, &intake));
  auto slices = intake.Finish();
  if (!slices.ok()) return slices.status();
  std::unique_ptr<GroupCursor> groups =
      GroupedRelation::LastScan(std::move(slices.value().front().r1));
  TransactionDb txns;
  IdGroup group;
  while (true) {
    auto more = groups->Next(&group);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    // Duplicate (trans_id, item) rows are rejected, not silently merged:
    // the miners with a native table pipeline (setm, setm-sql) count every
    // row, so deduplicating here would make the same MiningRequest yield
    // different supports per algorithm. SALES is set-valued — a duplicate
    // row is malformed input, and the caller should hear about it.
    const ItemId* repeated = std::adjacent_find(group.begin, group.end);
    if (repeated != group.end) {
      return Status::InvalidArgument(
          "SALES row (" + std::to_string(group.tid) + ", " +
          std::to_string(*repeated) +
          ") appears more than once; duplicate rows would be counted by "
          "row-oriented miners and must be removed first");
    }
    Transaction t;
    t.id = group.tid;
    t.items.assign(group.begin, group.end);
    txns.push_back(std::move(t));
  }
  SETM_RETURN_IF_ERROR(ValidateTransactions(txns));
  return txns;
}

}  // namespace setm
