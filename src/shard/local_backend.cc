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
  rows_ = std::move(rows);
  bound_to_table_ = false;
}

void LocalShardBackend::BindTable(std::string table_name) {
  table_name_ = std::move(table_name);
  bound_to_table_ = true;
  rows_.clear();
  rows_.shrink_to_fit();
}

void LocalShardBackend::AddCount(const std::vector<ItemId>& items,
                                 int64_t count) {
  PatternCount& pc = counts_[ItemsetKey(items)];
  if (pc.count == 0) pc.items = items;
  pc.count += count;
}

Status LocalShardBackend::BeginRun(const ShardRunOptions& options) {
  SETM_RETURN_IF_ERROR(EndRun());
  run_ = options;
  if (bound_to_table_) {
    auto table_or = db_->catalog()->ResolveTable(table_name_);
    if (!table_or.ok()) return table_or.status();
    SETM_RETURN_IF_ERROR(ExtractRows(*table_or.value(), &run_rows_));
  } else {
    run_rows_ = rows_;
  }
  // The same (trans_id, item) order the serial pipeline establishes for R_1.
  std::sort(run_rows_.begin(), run_rows_.end(),
            [](const ShardRow& a, const ShardRow& b) {
              return a.tid != b.tid ? a.tid < b.tid : a.item < b.item;
            });
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
  counts_.clear();
  const ExecContext ctx = LocalContext(db_);

  if (k == 1) {
    auto r1_or = NewScratchRelation(db_, run_.storage, prefix_ + "r1",
                                    SetmMiner::RkSchema(1));
    if (!r1_or.ok()) return r1_or.status();
    r1_ = std::move(r1_or).value();
    std::vector<ItemId> item(1);
    uint64_t transactions = 0;
    for (size_t i = 0; i < run_rows_.size(); ++i) {
      const ShardRow& row = run_rows_[i];
      if (i == 0 || row.tid != run_rows_[i - 1].tid) ++transactions;
      SETM_RETURN_IF_ERROR(r1_->Insert(
          Tuple({Value::Int32(row.tid), Value::Int32(row.item)})));
      if (run_.count_method == CountMethod::kHash) {
        item[0] = row.item;
        AddCount(item, 1);
      }
    }
    run_rows_.clear();
    run_rows_.shrink_to_fit();
    if (run_.count_method == CountMethod::kSortMerge) {
      SETM_RETURN_IF_ERROR(CountInto(
          ctx, *r1_, 1, /*min_count=*/1, CountMethod::kSortMerge,
          [this](std::vector<ItemId> items, int64_t count) {
            AddCount(items, count);
          }));
    }
    out.transactions = transactions;
    out.r_prime_rows = r1_->num_rows();
    out.r_bytes = r1_->size_bytes();
    out.r_pages = r1_->num_pages();
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
    CountSink sink;
    if (run_.count_method == CountMethod::kHash) {
      sink = [this](const std::vector<ItemId>& items) { AddCount(items, 1); };
    }
    SETM_RETURN_IF_ERROR(JoinIntoRkPrime(*left, *r1_, k, rk_prime_.get(),
                                         sink));
    if (run_.count_method == CountMethod::kSortMerge) {
      SETM_RETURN_IF_ERROR(CountInto(
          ctx, *rk_prime_, k, /*min_count=*/1, CountMethod::kSortMerge,
          [this](std::vector<ItemId> items, int64_t count) {
            AddCount(items, count);
          }));
    }
    out.r_prime_rows = rk_prime_->num_rows();
  }

  out.counts.reserve(counts_.size());
  for (auto& entry : counts_) {
    out.counts.push_back(
        PatternCount{std::move(entry.second.items), entry.second.count});
  }
  counts_.clear();
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<ShardFilterStats> LocalShardBackend::ApplyGlobalCk(
    size_t k, const std::vector<std::vector<ItemId>>& ck) {
  if (!running_) {
    return Status::Internal("ApplyGlobalCk before BeginRun on shard " + name_);
  }
  std::unordered_set<std::string> keys;
  keys.reserve(ck.size());
  for (const std::vector<ItemId>& items : ck) keys.insert(ItemsetKey(items));
  const CkProbe probe = [&keys](const std::string& key) {
    return keys.count(key) != 0;
  };
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
    SETM_RETURN_IF_ERROR(FilterR1Into(*r1_, probe, filtered.get()));
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
  // Matches the serial executor: an empty global C_k still creates (and
  // reports) an empty R_k.
  if (!keys.empty()) {
    SETM_RETURN_IF_ERROR(
        FilterRkPrimeIntoRk(LocalContext(db_), *rk_prime_, k, probe,
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
  counts_.clear();
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
