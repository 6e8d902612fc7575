#include "shard/local_backend.h"

#include <algorithm>
#include <unordered_map>
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

namespace {

ExecContext LocalContext(Database* db) {
  // Backends run on the coordinator's fan-out pool (or a server job thread):
  // never re-enter a pool from inside, so sorts get a worker-free context.
  ExecContext ctx;
  ctx.temp_pool = db->temp_pool();
  ctx.sort_memory_bytes = db->options().sort_memory_bytes;
  ctx.workers = nullptr;
  return ctx;
}

}  // namespace

LocalShardBackend::LocalShardBackend(Database* db, std::string name,
                                     std::string scratch_prefix)
    : db_(db), name_(std::move(name)), prefix_(std::move(scratch_prefix)) {}

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
  WallTimer timer;
  ShardLocalCounts out;
  const bool hash = run_.count_method == CountMethod::kHash;
  // kHash aggregates while R'_k is produced; kSortMerge counts the
  // materialized relation afterwards, one row per group.
  std::unordered_map<std::string, PatternCount> hashed;
  const auto tally = [&hashed](const std::vector<ItemId>& items) {
    PatternCount& pc = hashed[ItemsetKey(items)];
    if (pc.count == 0) pc.items = items;
    ++pc.count;
  };
  const Table* counted = nullptr;

  if (k == 1) {
    auto r1_or = NewScratchRelation(db_, run_.storage, prefix_ + "r1",
                                    SetmMiner::RkSchema(1));
    if (!r1_or.ok()) return r1_or.status();
    r1_ = std::move(r1_or).value();
    // R_1 := the slice, already in (trans_id, item) order.
    const std::vector<ShardRow>& slice = bound_to_table_ ? run_rows_ : rows_;
    std::vector<ItemId> item(1);
    uint64_t transactions = 0;
    for (size_t i = 0; i < slice.size(); ++i) {
      const ShardRow& row = slice[i];
      if (i == 0 || row.tid != slice[i - 1].tid) ++transactions;
      SETM_RETURN_IF_ERROR(r1_->Insert(
          Tuple({Value::Int32(row.tid), Value::Int32(row.item)})));
      if (hash) {
        item[0] = row.item;
        tally(item);
      }
    }
    run_rows_.clear();
    run_rows_.shrink_to_fit();
    out.transactions = transactions;
    out.r_prime_rows = r1_->num_rows();
    out.r_bytes = r1_->size_bytes();
    out.r_pages = r1_->num_pages();
    counted = r1_.get();
  } else {
    const Table* left = r_prev_ != nullptr ? r_prev_.get() : r1_.get();
    if (left == nullptr) {
      return Status::Internal("CountIteration(k>=2) before CountIteration(1)");
    }
    auto rkp_or = NewScratchRelation(db_, run_.storage,
                                     prefix_ + "r" + std::to_string(k) + "p",
                                     SetmMiner::RkSchema(k));
    if (!rkp_or.ok()) return rkp_or.status();
    rk_prime_ = std::move(rkp_or).value();
    SETM_RETURN_IF_ERROR(JoinIntoRkPrime(*left, *r1_, k, rk_prime_.get(),
                                         hash ? CountSink(tally) : nullptr));
    out.r_prime_rows = rk_prime_->num_rows();
    counted = rk_prime_.get();
  }

  if (hash) {
    for (auto& entry : hashed) {
      if (entry.second.count >= count_floor_) {
        out.counts.push_back(std::move(entry.second));
      }
    }
  } else {
    SETM_RETURN_IF_ERROR(
        CountInto(LocalContext(db_), *counted, k, count_floor_, &out.counts));
  }
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<ShardFilterStats> LocalShardBackend::ApplyGlobalCk(
    size_t k, const std::vector<std::vector<ItemId>>& ck) {
  if (!running_) {
    return Status::Internal("ApplyGlobalCk before BeginRun on shard " + name_);
  }
  CkKeys keys;
  keys.reserve(ck.size());
  for (const std::vector<ItemId>& items : ck) keys.insert(ItemsetKey(items));
  ShardFilterStats stats;

  if (k == 1) {
    // The filter_r1 ablation: drop rows of non-frequent items from R_1.
    if (r1_ == nullptr) {
      return Status::Internal("ApplyGlobalCk(1) before CountIteration(1)");
    }
    auto filtered_or = NewScratchRelation(db_, run_.storage, prefix_ + "r1f",
                                          SetmMiner::RkSchema(1));
    if (!filtered_or.ok()) return filtered_or.status();
    std::unique_ptr<Table> filtered = std::move(filtered_or).value();
    SETM_RETURN_IF_ERROR(FilterR1Into(*r1_, keys, filtered.get()));
    r1_ = std::move(filtered);
    stats.r_rows = r1_->num_rows();
    stats.r_bytes = r1_->size_bytes();
    stats.r_pages = r1_->num_pages();
    return stats;
  }

  if (rk_prime_ == nullptr) {
    return Status::Internal("ApplyGlobalCk(k) before CountIteration(k)");
  }
  auto rk_or = NewScratchRelation(db_, run_.storage,
                                  prefix_ + "r" + std::to_string(k),
                                  SetmMiner::RkSchema(k));
  if (!rk_or.ok()) return rk_or.status();
  std::unique_ptr<Table> rk = std::move(rk_or).value();
  // An empty global C_k still creates (and reports) an empty R_k, as
  // Figure 4's loop does.
  if (!keys.empty()) {
    SETM_RETURN_IF_ERROR(
        FilterRkPrimeIntoRk(LocalContext(db_), *rk_prime_, k, keys,
                            rk.get()));
  }
  stats.r_rows = rk->num_rows();
  stats.r_bytes = rk->size_bytes();
  stats.r_pages = rk->num_pages();
  r_prev_ = std::move(rk);
  rk_prime_.reset();
  return stats;
}

Status LocalShardBackend::EndRun() {
  r1_.reset();
  r_prev_.reset();
  rk_prime_.reset();
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
