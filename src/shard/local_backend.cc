#include "shard/local_backend.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "core/setm_pipeline.h"
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

Result<ShardLocalCounts> LocalShardBackend::CountIteration(size_t k) {
  if (!running_) {
    return Status::Internal("CountIteration before BeginRun on shard " +
                            name_);
  }
  if (k == 0) return Status::InvalidArgument("iteration k must be >= 1");
  WallTimer timer;
  ShardLocalCounts out;
  // The count pass: every R'_k row's itemset goes straight into the count,
  // within the sort budget under kSortMerge and without one under kHash.
  const ExecContext ctx = ExecContext::From(db_);
  BudgetedCount counts(ctx, k,
                       run_.count_method == CountMethod::kHash
                           ? BudgetedCount::kUnbounded
                           : ctx.sort_memory_bytes);
  const auto count = [&](const int32_t* row) {
    ++out.r_prime_rows;
    return counts.Add(row + 1);
  };

  if (k == 1) {
    auto r1_or = IntRelation::Create(db_, run_.storage, 2);
    if (!r1_or.ok()) return r1_or.status();
    r1_ = std::move(r1_or).value();
    r_prev_.reset();
    // R_1 := the slice, already in (trans_id, item) order.
    const std::vector<ShardRow>& slice = bound_to_table_ ? run_rows_ : rows_;
    IntRowBatch batch(r1_.get());
    uint64_t transactions = 0;
    for (size_t i = 0; i < slice.size(); ++i) {
      const int32_t row[2] = {slice[i].tid, slice[i].item};
      if (i == 0 || row[0] != slice[i - 1].tid) ++transactions;
      SETM_RETURN_IF_ERROR(batch.Add(row));
      SETM_RETURN_IF_ERROR(count(row));
    }
    SETM_RETURN_IF_ERROR(batch.Flush());
    run_rows_.clear();
    run_rows_.shrink_to_fit();
    out.transactions = transactions;
    out.r_bytes = r1_->size_bytes();
    out.r_pages = r1_->num_pages();
  } else {
    const IntRelation* left = r_prev_ != nullptr ? r_prev_.get() : r1_.get();
    if (left == nullptr) {
      return Status::Internal("CountIteration(k>=2) before CountIteration(1)");
    }
    if (left->width() != k) {
      return Status::InvalidArgument(
          "CountIteration(" + std::to_string(k) + ") after iteration " +
          std::to_string(left->width() - 1) + " on shard " + name_);
    }
    SETM_RETURN_IF_ERROR(JoinRkPrime(*left, *r1_, count));
  }

  SETM_RETURN_IF_ERROR(counts.Finish(count_floor_, &out.counts));
  counted_k_ = k;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<ShardFilterStats> LocalShardBackend::ApplyGlobalCk(
    size_t k, const std::vector<std::vector<ItemId>>& ck) {
  if (!running_) {
    return Status::Internal("ApplyGlobalCk before BeginRun on shard " + name_);
  }
  if (k == 0) return Status::InvalidArgument("iteration k must be >= 1");
  if (k != counted_k_) {
    return Status::InvalidArgument(
        "ApplyGlobalCk(" + std::to_string(k) + ") without CountIteration(" +
        std::to_string(k) + ") on shard " + name_);
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
  auto rk_or = IntRelation::Create(db_, run_.storage, k + 1);
  if (!rk_or.ok()) return rk_or.status();
  std::unique_ptr<IntRelation> rk = std::move(rk_or).value();
  // An empty global C_k still creates (and reports) an empty R_k, as
  // Figure 4's loop does. Otherwise the filter pass re-runs the count
  // pass's join (R_1 itself for k == 1).
  if (keys.size() != 0) {
    const IntRelation& left = r_prev_ != nullptr ? *r_prev_ : *r1_;
    SETM_RETURN_IF_ERROR(FilterByCk(left, *r1_, keys, rk.get()));
  }
  ShardFilterStats stats;
  stats.r_rows = rk->num_rows();
  stats.r_bytes = rk->size_bytes();
  stats.r_pages = rk->num_pages();
  if (k == 1) {
    // The filter_r1 ablation: R_1 without the non-frequent items.
    r1_ = std::move(rk);
  } else {
    r_prev_ = std::move(rk);
  }
  counted_k_ = 0;
  return stats;
}

Status LocalShardBackend::EndRun() {
  r1_.reset();
  r_prev_.reset();
  counted_k_ = 0;
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
