#include "shard/local_backend.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "exec/exec_context.h"

namespace setm::shard {

Status ExtractRows(const Table& sales, std::vector<ShardRow>* rows) {
  if (sales.schema().NumColumns() != 2) {
    return Status::InvalidArgument("SALES must have schema (trans_id, item)");
  }
  rows->reserve(rows->size() + sales.num_rows());
  auto it = sales.Scan();
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    rows->push_back(ShardRow{row.value(0).AsInt32(), row.value(1).AsInt32()});
  }
  return Status::OK();
}

LocalShardBackend::LocalShardBackend(Database* db, std::string name)
    : db_(db), name_(std::move(name)) {}

void LocalShardBackend::SetRows(std::vector<ShardRow> rows) {
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  rows_ = std::move(rows);
  bound_to_table_ = false;
}

void LocalShardBackend::BindTable(std::string table_name) {
  table_name_ = std::move(table_name);
  bound_to_table_ = true;
  rows_.clear();
  rows_.shrink_to_fit();
}

Status LocalShardBackend::BeginRun(const ShardRunOptions& options) {
  SETM_RETURN_IF_ERROR(EndRun());
  run_ = options;
  count_floor_ = 1;
  if (bound_to_table_) {
    auto table_or = db_->catalog()->ResolveTable(table_name_);
    if (!table_or.ok()) return table_or.status();
    SETM_RETURN_IF_ERROR(ExtractRows(*table_or.value(), &run_rows_));
    std::sort(run_rows_.begin(), run_rows_.end());
  }
  running_ = true;
  return Status::OK();
}

std::unique_ptr<BudgetedCount> LocalShardBackend::NewCount(size_t k) const {
  if (run_.max_pattern_length != 0 && k > run_.max_pattern_length) {
    return nullptr;
  }
  // Within the sort budget under kSortMerge, without one under kHash.
  const ExecContext ctx = ExecContext::From(db_);
  return std::make_unique<BudgetedCount>(
      ctx, k,
      run_.count_method == CountMethod::kHash ? BudgetedCount::kUnbounded
                                              : ctx.sort_memory_bytes);
}

Result<ShardReply> LocalShardBackend::CountFirstIteration() {
  if (!running_) {
    return Status::Internal("CountFirstIteration before BeginRun on shard " +
                            name_);
  }
  if (next_k_ != 0) {
    return Status::InvalidArgument(
        "CountFirstIteration twice in one run on shard " + name_);
  }
  std::unique_ptr<BudgetedCount> counts = NewCount(1);
  // Every pass rescans R_1: its pages stay in the pool's retained share.
  auto r1_or = IntRelation::Create(db_, run_.storage, 2, PageHint::kRetain);
  if (!r1_or.ok()) return r1_or.status();
  r1_ = std::move(r1_or).value();
  r_prev_.reset();
  // R'_2 pairs the items of each transaction; under filter_r1 it is
  // counted over the filtered R_1 instead, by ApplyGlobalCk(1).
  r2_count_ = run_.filter_r1 ? nullptr : NewCount(2);
  // R_1 := the slice, already in (trans_id, item) order.
  const std::vector<ShardRow>& slice = bound_to_table_ ? run_rows_ : rows_;
  std::vector<ItemId> items;  // the current transaction's
  ShardReply out;
  for (size_t i = 0; i < slice.size(); ++i) {
    const int32_t row[2] = {slice[i].tid, slice[i].item};
    if (i == 0 || row[0] != slice[i - 1].tid) {
      ++out.transactions;
      items.clear();
    }
    items.push_back(row[1]);
    SETM_RETURN_IF_ERROR(r1_->Append(row, 1));
    SETM_RETURN_IF_ERROR(counts->Add(&row[1]));
    const bool last = i + 1 == slice.size() || slice[i + 1].tid != row[0];
    if (last && r2_count_ != nullptr) {
      SETM_RETURN_IF_ERROR(CountPairs(items, r2_count_.get()));
    }
  }
  SETM_RETURN_IF_ERROR(r1_->Finish());
  run_rows_.clear();
  run_rows_.shrink_to_fit();
  out.r_rows = r1_->num_rows();
  out.r_bytes = r1_->size_bytes();
  out.r_pages = r1_->num_pages();
  out.r_prime_rows = counts->stats().rows;
  SETM_RETURN_IF_ERROR(counts->Finish(count_floor_, &out.counts));
  next_k_ = 1;
  return out;
}

Result<ShardReply> LocalShardBackend::ApplyGlobalCk(
    size_t k, const std::vector<std::vector<ItemId>>& ck) {
  if (!running_) {
    return Status::Internal("ApplyGlobalCk before BeginRun on shard " + name_);
  }
  if (k == 0 || k != next_k_) {
    return Status::InvalidArgument(
        "ApplyGlobalCk(" + std::to_string(k) + ") on shard " + name_ +
        ", which expects " +
        (next_k_ == 0 ? std::string("CountFirstIteration")
                      : "ApplyGlobalCk(" + std::to_string(next_k_) + ")"));
  }
  ItemsetCounts keys(k);
  for (const std::vector<ItemId>& items : ck) {
    if (items.size() != k) {
      return Status::InvalidArgument(
          "C_" + std::to_string(k) + " holds a " +
          std::to_string(items.size()) + "-itemset");
    }
    keys.Add(items.data(), 1);
  }
  std::unique_ptr<BudgetedCount> next;
  if (k == 1 && !run_.filter_r1) {
    // R_1 stays as built; R'_2 was counted alongside it.
    next = std::move(r2_count_);
  } else {
    auto rk_or = IntRelation::Create(
        db_, run_.storage, k + 1,
        k == 1 ? PageHint::kRetain : PageHint::kNone);
    if (!rk_or.ok()) return rk_or.status();
    std::unique_ptr<IntRelation> rk = std::move(rk_or).value();
    // The one pass of the iteration: the join (R_1 itself for k == 1), the
    // C_k probe, R_k appended and R'_{k+1} counted. An empty global C_k
    // still creates (and reports) an empty R_k, as Figure 4's loop does,
    // and leaves an empty count of R'_{k+1}.
    next = NewCount(k + 1);
    if (keys.size() != 0) {
      // Pass k >= 3 is R_{k-1}'s last use: the join releases each of its
      // pages as it leaves it, and R_k reuses their ids. A failed pass has
      // consumed its input, so it ends the run.
      std::unique_ptr<IntRowCursor> left =
          r_prev_ != nullptr ? IntRelation::LastScan(std::move(r_prev_))
                             : r1_->Scan();
      Status pass = FilterByCk(left.get(), *r1_, keys, rk.get(), next.get());
      if (!pass.ok()) {
        left.reset();
        (void)EndRun();
        return pass;
      }
    } else {
      SETM_RETURN_IF_ERROR(rk->Finish());
    }
    if (k == 1) {
      // The filter_r1 ablation: R_1 without the non-frequent items.
      r1_ = std::move(rk);
    } else {
      r_prev_ = std::move(rk);
    }
  }
  const IntRelation& rk = k == 1 ? *r1_ : *r_prev_;
  ShardReply out;
  out.r_rows = rk.num_rows();
  out.r_bytes = rk.size_bytes();
  out.r_pages = rk.num_pages();
  if (next != nullptr) {
    out.r_prime_rows = next->stats().rows;
    SETM_RETURN_IF_ERROR(next->Finish(count_floor_, &out.counts));
  }
  next_k_ = k + 1;
  return out;
}

Status LocalShardBackend::EndRun() {
  r1_.reset();
  r_prev_.reset();
  r2_count_.reset();
  next_k_ = 0;
  run_rows_.clear();
  run_rows_.shrink_to_fit();
  running_ = false;
  return Status::OK();
}

Result<ShardHealth> LocalShardBackend::Health() {
  ShardHealth health;
  health.reachable = true;
  std::unordered_set<TransactionId> tids;
  if (bound_to_table_) {
    auto table_or = db_->catalog()->ResolveTable(table_name_);
    if (!table_or.ok()) return table_or.status();
    const Table& sales = *table_or.value();
    health.sales_rows = sales.num_rows();
    health.sales_bytes = sales.size_bytes();
    auto it = sales.Scan();
    Tuple row;
    while (true) {
      auto more = it->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      tids.insert(row.value(0).AsInt32());
    }
  } else {
    health.sales_rows = rows_.size();
    health.sales_bytes = rows_.size() * sizeof(ShardRow);
    for (const ShardRow& row : rows_) tids.insert(row.tid);
  }
  health.transactions = tids.size();
  return health;
}

}  // namespace setm::shard
