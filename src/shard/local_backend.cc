#include "shard/local_backend.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"

namespace setm::shard {

namespace {

/// The budget of a count: the sort budget under kSortMerge, none under
/// kHash.
size_t CountBudget(const ExecContext& ctx, CountMethod method) {
  return method == CountMethod::kHash ? BudgetedCount::kUnbounded
                                      : ctx.sort_memory_bytes;
}

}  // namespace

SalesIntake::SalesIntake(ExecContext ctx, const ShardRunOptions& run,
                         size_t num_shards, uint64_t expected_rows,
                         TransactionId max_tid,
                         std::optional<ItemRanks> items)
    : ctx_(std::move(ctx)),
      run_(run),
      num_shards_(std::max<size_t>(1, num_shards)),
      share_((expected_rows + num_shards_ - 1) / num_shards_),
      max_tid_(max_tid),
      items_(std::move(items)) {}

void SalesIntake::Begin(TransactionId tid, ItemId item) {
  low_tid_ = std::min(low_tid_, tid);
  high_tid_ = std::max(high_tid_, tid);
  if (!descended_ && !group_.empty() && tid < tid_) Descend();
  if (descended_) {
    buffered_.emplace_back(tid, item);
    return;
  }
  if (!group_.empty()) WriteGroup();
  // The transaction opens the next shard once the current one holds its
  // share of the expected rows, scaled by the fraction of the rows read so
  // far that were kept, so a lattice's thinning keeps every shard busy.
  if (shards_.empty() || (shard_rows_ * sales_rows_ >= share_ * kept_rows_ &&
                          shards_.size() < num_shards_)) {
    OpenShard();
  }
  tid_ = tid;
  group_.push_back(item);
}

void SalesIntake::OpenShard() {
  ShardSlice shard;
  shard.r1 = std::make_unique<GroupedRelation>(
      run_.storage == TableBacking::kHeap ? ctx_.pool : nullptr, "R_1",
      ctx_.unlogged_page_tagger, PageHint::kRetain);
  shard.c1 = std::make_unique<ItemCount>(
      ctx_, CountBudget(ctx_, run_.count_method), share_);
  shards_.push_back(std::move(shard));
  shard_rows_ = 0;
}

void SalesIntake::WriteGroup() {
  // One scan finds the usual group strictly ascending: sorted, and no
  // item repeated.
  if (std::adjacent_find(group_.begin(), group_.end(),
                         std::greater_equal<ItemId>()) != group_.end()) {
    std::sort(group_.begin(), group_.end());
    if (std::adjacent_find(group_.begin(), group_.end()) != group_.end()) {
      repeated_rows_ = true;
    }
  }
  ShardSlice& shard = shards_.back();
  ++shard.transactions;
  shard_rows_ += group_.size();
  if (status_.ok()) {
    status_ = shard.r1->Append(tid_, group_.data(), group_.size());
  }
  if (status_.ok()) status_ = shard.c1->Add(group_.data(), group_.size());
  group_.clear();
}

void SalesIntake::Descend() {
  descended_ = true;
  buffered_.reserve(kept_rows_);
  for (ShardSlice& shard : shards_) {
    if (status_.ok()) status_ = shard.r1->Finish();
    if (!status_.ok()) break;
    std::unique_ptr<GroupCursor> groups =
        GroupedRelation::LastScan(std::move(shard.r1));
    IdGroup group;
    while (true) {
      auto more = groups->Next(&group);
      if (!more.ok()) status_ = more.status();
      if (!more.ok() || !more.value()) break;
      for (const ItemId* item = group.begin; item != group.end; ++item) {
        buffered_.emplace_back(group.tid, *item);
      }
    }
  }
  shards_.clear();
  for (ItemId item : group_) buffered_.emplace_back(tid_, item);
  group_.clear();
}

Result<std::vector<ShardSlice>> SalesIntake::Finish() {
  if (descended_) {
    static obs::Gauge* intake_bytes = obs::MetricsRegistry::Global()->GetGauge(
        "setm_mem_intake_bytes",
        "High-water mark of the SALES rows a mine's intake buffers: only "
        "SALES out of trans_id order is buffered");
    intake_bytes->RaiseTo(static_cast<int64_t>(
        buffered_.capacity() * sizeof(buffered_[0])));
    std::sort(buffered_.begin(), buffered_.end());
    descended_ = false;
    for (const auto& [tid, item] : buffered_) Keep(tid, item);
    buffered_.clear();
    buffered_.shrink_to_fit();
  }
  if (!group_.empty()) WriteGroup();
  if (shards_.empty()) OpenShard();  // an empty SALES: one empty R_1
  for (ShardSlice& shard : shards_) {
    if (status_.ok()) status_ = shard.r1->Finish();
  }
  if (!status_.ok()) return status_;
  return std::move(shards_);
}

Status ExtractRows(const Table& sales, SalesIntake* intake, uint64_t begin,
                   uint64_t end) {
  return ForEachInt32Pair(
      sales, [intake](int32_t tid, int32_t item) { intake->Add(tid, item); },
      begin, end);
}

LocalShardBackend::LocalShardBackend(Database* db, std::string name)
    : db_(db), name_(std::move(name)) {}

Status LocalShardBackend::BeginRun(const ShardRunOptions& options) {
  if (running_) SETM_RETURN_IF_ERROR(EndRun());
  run_ = options;
  count_floor_ = 1;
  if (!table_name_.empty()) {
    auto table_or = db_->catalog()->ResolveTable(table_name_);
    if (!table_or.ok()) return table_or.status();
    const Table& sales = *table_or.value();
    SalesIntake intake(ExecContext::From(db_), run_, 1, sales.num_rows());
    SETM_RETURN_IF_ERROR(ExtractRows(sales, &intake));
    auto slices_or = intake.Finish();
    if (!slices_or.ok()) return slices_or.status();
    slice_ = std::move(slices_or.value().front());
  } else if (slice_.r1 == nullptr) {
    return Status::Internal("BeginRun on shard " + name_ +
                            ", which has no slice: SetSlice or BindTable "
                            "first");
  }
  running_ = true;
  return Status::OK();
}

std::unique_ptr<ExtensionCount> LocalShardBackend::NewCount(
    const ExtensionSpace* space, size_t k) const {
  if (run_.max_pattern_length != 0 && k > run_.max_pattern_length) {
    return nullptr;
  }
  const ExecContext ctx = ExecContext::From(db_);
  return std::make_unique<ExtensionCount>(
      ctx, space, CountBudget(ctx, run_.count_method));
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
  // R_1 and C_1's count were taken in the intake's one pass over SALES.
  const GroupedRelation& r1 = *slice_.r1;
  ShardReply out;
  out.transactions = slice_.transactions;
  out.r_rows = r1.num_rows();
  out.r_bytes = r1.num_rows() * 2 * sizeof(int32_t);
  out.r_pages = r1.num_pages();
  out.r_prime_rows = slice_.c1->stats().rows;
  SETM_RETURN_IF_ERROR(slice_.c1->Finish(count_floor_, &out.counts));
  slice_.c1.reset();
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
                           : slice_.r1->Scan();
    Status pass = FilterByCk(left.get(), *slice_.r1,
                             k >= 3 ? &level_ : nullptr, level,
                             slice_.anti_monotone, rk.get(), next.get());
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
    slice_.r1 = std::move(rk);
  } else if (rk != nullptr) {
    r_prev_ = std::move(rk);
  }
  const GroupedRelation& written = k == 1 ? *slice_.r1 : *r_prev_;
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
  slice_ = ShardSlice{};
  r_prev_.reset();
  level_ = CandidateLevel{};
  next_k_ = 0;
  running_ = false;
  return Status::OK();
}

Result<ShardHealth> LocalShardBackend::Health() {
  if (table_name_.empty()) {
    return Status::NotFound("shard " + name_ + " is bound to no table");
  }
  auto table_or = db_->catalog()->ResolveTable(table_name_);
  if (!table_or.ok()) return table_or.status();
  const Table& sales = *table_or.value();
  ShardHealth health;
  health.reachable = true;
  health.sales_rows = sales.num_rows();
  health.sales_bytes = sales.size_bytes();
  std::unordered_set<TransactionId> tids;
  SETM_RETURN_IF_ERROR(ForEachInt32Pair(
      sales, [&tids](int32_t tid, int32_t) { tids.insert(tid); }));
  health.transactions = tids.size();
  return health;
}

}  // namespace setm::shard
