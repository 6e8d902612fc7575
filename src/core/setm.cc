#include "core/setm.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/worker_pool.h"
#include "shard/coordinator.h"
#include "shard/local_backend.h"

namespace setm {

Schema SetmMiner::SalesSchema() {
  return Schema({Column{"trans_id", ValueType::kInt32},
                 Column{"item", ValueType::kInt32}});
}

Schema SetmMiner::RkSchema(size_t k) {
  Schema schema;
  schema.AddColumn(Column{"trans_id", ValueType::kInt32});
  for (size_t i = 1; i <= k; ++i) {
    schema.AddColumn(Column{"item" + std::to_string(i), ValueType::kInt32});
  }
  return schema;
}

Result<Table*> LoadSalesTable(Database* db, const std::string& name,
                              const TransactionDb& transactions,
                              TableBacking backing) {
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  auto table_or =
      db->catalog()->CreateTable(name, SetmMiner::SalesSchema(), backing);
  if (!table_or.ok()) return table_or.status();
  Table* table = table_or.value();
  for (const Transaction& t : transactions) {
    for (ItemId item : t.items) {
      SETM_RETURN_IF_ERROR(table->Insert(
          Tuple({Value::Int32(t.id), Value::Int32(item)})));
    }
  }
  return table;
}

namespace {

/// Every SETM mine: SALES rows range-partitioned on trans_id into
/// num_threads row-balanced slices (never splitting a transaction), one
/// LocalShardBackend per slice, DistributedMine driving them. A serial mine
/// is the one-shard case, run inline on the calling thread. A `lattice`
/// count drops the rows of other items first.
Result<MiningResult> MinePartitioned(Database* db, const SetmOptions& so,
                                     std::vector<shard::ShardRow> rows,
                                     const MiningOptions& options,
                                     const IoStats& io_before,
                                     const FrequentItemsets* lattice,
                                     obs::TraceSpan* trace) {
  if (lattice != nullptr) {
    std::unordered_set<ItemId> items;
    for (const PatternCount& pc : lattice->OfSize(1)) items.insert(pc.items[0]);
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [&items](const shard::ShardRow& row) {
                                return items.count(row.item) == 0;
                              }),
               rows.end());
  }
  // Sort once (the backends keep this order), then cut at transaction
  // boundaries.
  std::sort(rows.begin(), rows.end());
  uint64_t num_transactions = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].tid != rows[i - 1].tid) ++num_transactions;
  }
  const size_t num_shards = static_cast<size_t>(std::min<uint64_t>(
      std::max<size_t>(1, so.num_threads),
      std::max<uint64_t>(1, num_transactions)));
  std::vector<std::vector<shard::ShardRow>> slices(num_shards);
  if (num_shards == 1) {
    slices[0] = std::move(rows);
  } else {
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
  }

  std::vector<std::unique_ptr<shard::LocalShardBackend>> backends;
  std::vector<shard::ShardBackend*> shards;
  backends.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto backend = std::make_unique<shard::LocalShardBackend>(
        db, "s" + std::to_string(i));
    backend->SetRows(std::move(slices[i]));
    shards.push_back(backend.get());
    backends.push_back(std::move(backend));
  }

  shard::CoordinatorOptions coord;
  coord.run.storage = so.storage;
  coord.run.count_method = so.count_method;
  coord.trace = trace;
  coord.lattice = lattice;
  std::unique_ptr<WorkerPool> owned_pool;
  if (num_shards > 1) {
    coord.pool = db->worker_pool();
    if (coord.pool == nullptr) {
      owned_pool = std::make_unique<WorkerPool>(num_shards);
      coord.pool = owned_pool.get();
    }
  }

  auto result = shard::DistributedMine(shards, options, coord);
  if (!result.ok()) return result.status();
  result.value().io = Diff(*db->io_stats(), io_before);
  return result;
}

}  // namespace

Result<MiningResult> SetmMiner::Mine(const TransactionDb& transactions,
                                     const MiningOptions& options) {
  const IoStats io_before = *db_->io_stats();
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  std::vector<shard::ShardRow> rows;
  size_t total = 0;
  for (const Transaction& t : transactions) total += t.items.size();
  rows.reserve(total);
  for (const Transaction& t : transactions) {
    for (ItemId item : t.items) rows.push_back(shard::ShardRow{t.id, item});
  }
  return MinePartitioned(db_, setm_options_, std::move(rows), options,
                         io_before, lattice_, trace_);
}

Result<MiningResult> SetmMiner::MineTable(const Table& sales,
                                          const MiningOptions& options,
                                          TransactionId max_tid) {
  // Snapshot before the SALES scan, so the result's ledger includes it.
  const IoStats io_before = *db_->io_stats();
  std::vector<shard::ShardRow> rows;
  SETM_RETURN_IF_ERROR(shard::ExtractRows(sales, &rows, max_tid));
  return MinePartitioned(db_, setm_options_, std::move(rows), options,
                         io_before, lattice_, trace_);
}

}  // namespace setm
