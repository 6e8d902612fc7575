#include "shard/sharded_setm.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/worker_pool.h"
#include "shard/coordinator.h"
#include "shard/local_backend.h"

namespace setm::shard {

namespace {

/// The coordinator pipeline over pre-extracted SALES rows.
Result<MiningResult> RunSharded(Database* db, const SetmOptions& so,
                                std::vector<ShardRow> rows,
                                const MiningOptions& options) {
  const IoStats io_before = *db->io_stats();

  // Row-balanced trans_id partitioning: sort once, then cut at transaction
  // boundaries.
  std::sort(rows.begin(), rows.end(),
            [](const ShardRow& a, const ShardRow& b) {
              return a.tid != b.tid ? a.tid < b.tid : a.item < b.item;
            });
  uint64_t num_transactions = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].tid != rows[i - 1].tid) ++num_transactions;
  }
  const size_t want = std::max<size_t>(1, so.num_threads);
  const size_t num_shards = static_cast<size_t>(std::min<uint64_t>(
      want, std::max<uint64_t>(1, num_transactions)));
  std::vector<std::vector<ShardRow>> slices(num_shards);
  const size_t target = (rows.size() + num_shards - 1) / num_shards;
  size_t si = 0;
  for (size_t i = 0; i < rows.size();) {
    size_t j = i;
    while (j < rows.size() && rows[j].tid == rows[i].tid) ++j;
    if (slices[si].size() >= target && si + 1 < num_shards) ++si;
    slices[si].insert(slices[si].end(), rows.begin() + i, rows.begin() + j);
    i = j;
  }
  rows.clear();
  rows.shrink_to_fit();

  std::vector<std::unique_ptr<LocalShardBackend>> backends;
  std::vector<ShardBackend*> shards;
  backends.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto backend = std::make_unique<LocalShardBackend>(
        db, "s" + std::to_string(i), "s" + std::to_string(i) + "_");
    backend->SetRows(std::move(slices[i]));
    shards.push_back(backend.get());
    backends.push_back(std::move(backend));
  }

  CoordinatorOptions coord;
  coord.run.storage = so.storage;
  coord.run.count_method = so.count_method;
  coord.pool = db->worker_pool();
  std::unique_ptr<WorkerPool> owned_pool;
  if (coord.pool == nullptr && so.num_threads > 1) {
    owned_pool =
        std::make_unique<WorkerPool>(std::min(so.num_threads, num_shards));
    coord.pool = owned_pool.get();
  }

  auto result = DistributedMine(shards, options, coord);
  if (!result.ok()) return result.status();
  result.value().io = Diff(*db->io_stats(), io_before);
  return result;
}

}  // namespace

Result<MiningResult> ShardedSetmMiner::Mine(const TransactionDb& transactions,
                                            const MiningOptions& options) {
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  std::vector<ShardRow> rows;
  size_t total = 0;
  for (const Transaction& t : transactions) total += t.items.size();
  rows.reserve(total);
  for (const Transaction& t : transactions) {
    for (ItemId item : t.items) rows.push_back(ShardRow{t.id, item});
  }
  return RunSharded(db_, setm_options_, std::move(rows), options);
}

Result<MiningResult> ShardedSetmMiner::MineTable(const Table& sales,
                                                 const MiningOptions& options) {
  std::vector<ShardRow> rows;
  SETM_RETURN_IF_ERROR(ExtractRows(sales, &rows));
  return RunSharded(db_, setm_options_, std::move(rows), options);
}

}  // namespace setm::shard
