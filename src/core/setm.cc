#include "core/setm.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
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

/// The items of a lattice count, the only ones its intake keeps; none
/// without a lattice.
std::optional<ItemRanks> LatticeItems(const FrequentItemsets* lattice) {
  if (lattice == nullptr) return std::nullopt;
  std::vector<ItemId> items;
  for (const PatternCount& pc : lattice->OfSize(1)) {
    items.push_back(pc.items[0]);
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return ItemRanks(std::move(items));
}

/// Every SETM mine: the intake's rows range-partitioned on trans_id into
/// num_threads row-balanced slices (never splitting a transaction), one
/// LocalShardBackend per slice, DistributedMine driving them. A serial mine
/// is the one-shard case, run inline on the calling thread. The result
/// and the trace carry the intake's counts: rows read and rows kept.
Result<MiningResult> MinePartitioned(Database* db, const SetmOptions& so,
                                     shard::SalesIntake* intake,
                                     const MiningOptions& options,
                                     const IoStats& io_before,
                                     const FrequentItemsets* lattice,
                                     obs::TraceSpan* trace) {
  const uint64_t sales_rows = intake->sales_rows();
  const uint64_t kept_rows = intake->kept_rows();
  if (trace != nullptr) {
    trace->AddCount("sales_rows", sales_rows);
    trace->AddCount("kept_rows", kept_rows);
  }
  // In (trans_id, item) order, which the backends keep; then cut at
  // transaction boundaries.
  std::vector<shard::ShardRow> rows = intake->TakeSorted();
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
  result.value().sales_rows = sales_rows;
  result.value().kept_rows = kept_rows;
  return result;
}

}  // namespace

Result<MiningResult> SetmMiner::Mine(const TransactionDb& transactions,
                                     const MiningOptions& options) {
  const IoStats io_before = *db_->io_stats();
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  shard::SalesIntake intake(INT32_MAX, LatticeItems(lattice_));
  size_t total = 0;
  for (const Transaction& t : transactions) total += t.items.size();
  intake.Reserve(total);
  for (const Transaction& t : transactions) {
    for (ItemId item : t.items) intake.Add(t.id, item);
  }
  return MinePartitioned(db_, setm_options_, &intake, options, io_before,
                         lattice_, trace_);
}

Result<MiningResult> SetmMiner::MineTable(const Table& sales,
                                          const MiningOptions& options,
                                          TransactionId max_tid) {
  // Snapshot before the SALES scan, so the result's ledger includes it.
  const IoStats io_before = *db_->io_stats();
  shard::SalesIntake intake(max_tid, LatticeItems(lattice_));
  SETM_RETURN_IF_ERROR(shard::ExtractRows(sales, &intake));
  return MinePartitioned(db_, setm_options_, &intake, options, io_before,
                         lattice_, trace_);
}

}  // namespace setm
