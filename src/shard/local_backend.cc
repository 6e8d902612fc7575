#include "shard/local_backend.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "exec/exec_context.h"

namespace setm::shard {

std::vector<ShardRow> SalesIntake::TakeSorted() {
  if (!sorted_) std::sort(rows_.begin(), rows_.end());
  sorted_ = true;
  std::vector<ShardRow> rows;
  rows.swap(rows_);
  return rows;
}

Status ExtractRows(const Table& sales, SalesIntake* intake) {
  intake->Reserve(sales.num_rows());
  return ForEachInt32Pair(sales, [intake](int32_t tid, int32_t item) {
    intake->Add(tid, item);
  });
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
    SalesIntake intake;
    SETM_RETURN_IF_ERROR(ExtractRows(*table_or.value(), &intake));
    run_rows_ = intake.TakeSorted();
  }
  running_ = true;
  return Status::OK();
}

std::unique_ptr<ExtensionCount> LocalShardBackend::NewCount(
    const ExtensionSpace* space, size_t k) const {
  if (run_.max_pattern_length != 0 && k > run_.max_pattern_length) {
    return nullptr;
  }
  // Within the sort budget under kSortMerge, without one under kHash.
  const ExecContext ctx = ExecContext::From(db_);
  return std::make_unique<ExtensionCount>(
      ctx, space,
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
  // Every pass rescans R_1: its pages stay in the pool's retained share.
  r1_ = GroupedRelation::Create(db_, run_.storage, "R_1", PageHint::kRetain);
  r_prev_.reset();
  level_ = CandidateLevel{};
  // R_1 := the slice, already in (trans_id, item) order. Its items, ranked
  // among the slice's distinct items, key C_1's count.
  const std::vector<ShardRow>& slice = bound_to_table_ ? run_rows_ : rows_;
  const ExtensionSpace singletons =
      ExtensionSpace::Singletons(ItemRanks::Distinct(
          slice, [](const ShardRow& row) { return row.item; }));
  const ItemRanks& distinct = singletons.alphabet;
  std::unique_ptr<ExtensionCount> counts = NewCount(&singletons, 1);
  ShardReply out;
  std::vector<ItemId> items;   // the current transaction's
  std::vector<int32_t> ranks;  // and their ranks
  for (size_t begin = 0; begin < slice.size();) {
    ++out.transactions;
    items.clear();
    ranks.clear();
    size_t end = begin;
    for (; end < slice.size() && slice[end].tid == slice[begin].tid; ++end) {
      items.push_back(slice[end].item);
      ranks.push_back(distinct.RankOf(slice[end].item));
    }
    SETM_RETURN_IF_ERROR(
        r1_->Append(slice[begin].tid, items.data(), items.size()));
    // C_1's count extends the empty itemset by each item.
    counts->AddRows(ranks.size());
    SETM_RETURN_IF_ERROR(
        counts->AddExtensions(0, ranks.data(), ranks.data() + ranks.size()));
    begin = end;
  }
  SETM_RETURN_IF_ERROR(r1_->Finish());
  run_rows_.clear();
  run_rows_.shrink_to_fit();
  out.r_rows = r1_->num_rows();
  out.r_bytes = r1_->num_rows() * 2 * sizeof(int32_t);
  out.r_pages = r1_->num_pages();
  out.r_prime_rows = counts->stats().rows;
  SETM_RETURN_IF_ERROR(counts->Finish(count_floor_, &out.counts));
  next_k_ = 1;
  return out;
}

Result<ShardReply> LocalShardBackend::ApplyGlobalCk(
    size_t k, const std::vector<CandidateKey>& ck) {
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
  // Ids and child ranges trust C_k, which a remote coordinator sends.
  auto level_or = IndexCandidates(k, ck, k == 1 ? nullptr : &level_);
  if (!level_or.ok()) {
    return Status::InvalidArgument(level_or.status().message() +
                                   " on shard " + name_);
  }
  CandidateLevel level = std::move(level_or).value();
  // The one pass of the iteration: the join (R_1 itself for k == 1), the
  // C_k filter, R_k appended and R'_{k+1} counted by (C_k id, C_1 rank).
  std::unique_ptr<ExtensionCount> next = NewCount(&level.space, k + 1);
  // Pass 1 rewrites R_1 only under filter_r1; otherwise R_1 stays whole.
  // R_k (k >= 2) is (trans_id, C_k id), grouped like R_1.
  std::unique_ptr<GroupedRelation> rk;
  if (k >= 2 || run_.filter_r1) {
    rk = GroupedRelation::Create(
        db_, run_.storage, "R_" + std::to_string(k),
        k == 1 ? PageHint::kRetain : PageHint::kNone);
  }
  // An empty global C_k still creates (and reports) an empty R_k, as
  // Figure 4's loop does, and leaves an empty count of R'_{k+1}. A whole
  // R_1 is still scanned under an empty C_1: pass 2 joins all of it, so
  // |R'_2| counts all of its pairs.
  if (rk == nullptr ? next != nullptr : level.size() != 0) {
    // Pass k >= 3 is R_{k-1}'s last use: the join releases each of its
    // pages as it leaves it, and R_k reuses their ids. A failed pass has
    // consumed its input, so it ends the run.
    std::unique_ptr<GroupCursor> left =
        r_prev_ != nullptr ? GroupedRelation::LastScan(std::move(r_prev_))
                           : r1_->Scan();
    Status pass = FilterByCk(left.get(), *r1_, k >= 3 ? &level_ : nullptr,
                             level, rk.get(), next.get());
    if (!pass.ok()) {
      left.reset();
      next.reset();
      (void)EndRun();
      return pass;
    }
  } else if (rk != nullptr) {
    SETM_RETURN_IF_ERROR(rk->Finish());
  }
  if (k == 1 && rk != nullptr) {
    // The filter_r1 ablation: R_1 without the non-frequent items.
    r1_ = std::move(rk);
  } else if (rk != nullptr) {
    r_prev_ = std::move(rk);
  }
  const GroupedRelation& written = k == 1 ? *r1_ : *r_prev_;
  ShardReply out;
  out.r_rows = written.num_rows();
  // The paper's |R_k|, (trans_id, item_1..item_k) per row; the pages are
  // the engine's, of the grouped relation.
  out.r_bytes = written.num_rows() * (k + 1) * sizeof(int32_t);
  out.r_pages = written.num_pages();
  if (next != nullptr) {
    out.r_prime_rows = next->stats().rows;
    // R_k is written, so a count that fails to finish ends the run too.
    Status finish = next->Finish(count_floor_, &out.counts);
    if (!finish.ok()) {
      next.reset();
      (void)EndRun();
      return finish;
    }
  }
  // The count of R'_{k+1} reads its key space from C_k's level: it is done
  // before the level moves.
  next.reset();
  level_ = std::move(level);
  next_k_ = k + 1;
  return out;
}

Status LocalShardBackend::EndRun() {
  r1_.reset();
  r_prev_.reset();
  level_ = CandidateLevel{};
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
    SETM_RETURN_IF_ERROR(ForEachInt32Pair(
        sales, [&tids](int32_t tid, int32_t) { tids.insert(tid); }));
  } else {
    health.sales_rows = rows_.size();
    health.sales_bytes = rows_.size() * sizeof(ShardRow);
    for (const ShardRow& row : rows_) tids.insert(row.tid);
  }
  health.transactions = tids.size();
  return health;
}

}  // namespace setm::shard
