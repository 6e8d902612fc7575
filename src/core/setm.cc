#include "core/setm.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "exec/worker_pool.h"
#include "shard/coordinator.h"
#include "shard/local_backend.h"

namespace setm {

Schema SetmMiner::SalesSchema() {
  return Schema({Column{"trans_id", ValueType::kInt32},
                 Column{"item", ValueType::kInt32}});
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

/// Every SETM mine: `read` feeds SALES to the intake, which writes it as
/// the R_1s of at most num_threads shards cut on trans_id, counting C_1;
/// one LocalShardBackend per shard, DistributedMine driving them. A serial
/// mine is the one-shard case, run inline on the calling thread. The
/// result's I/O ledger includes the read, and the result and the trace
/// carry the intake's counts: rows read and rows kept.
template <typename Read>
Result<MiningResult> MinePartitioned(Database* db, const SetmOptions& so,
                                     const MiningOptions& options,
                                     const FrequentItemsets* lattice,
                                     obs::TraceSpan* trace,
                                     uint64_t expected_rows,
                                     TransactionId max_tid, Read read) {
  const IoStats io_before = *db->io_stats();
  shard::CoordinatorOptions coord;
  coord.run.storage = so.storage;
  coord.run.count_method = so.count_method;
  coord.trace = trace;
  coord.lattice = lattice;
  shard::SalesIntake intake(ExecContext::From(db), coord.run, so.num_threads,
                            expected_rows, max_tid, LatticeItems(lattice));
  SETM_RETURN_IF_ERROR(read(&intake));
  auto slices_or = intake.Finish();
  if (!slices_or.ok()) return slices_or.status();
  std::vector<shard::ShardSlice> slices = std::move(slices_or).value();
  if (trace != nullptr) {
    trace->AddCount("sales_rows", intake.sales_rows());
    trace->AddCount("kept_rows", intake.kept_rows());
  }
  // Without a lattice, and with no (trans_id, item) row repeated, every
  // C_k holds each k-itemset that reaches minsupport and counts are
  // supports: the passes may count sibling extensions only.
  const bool anti_monotone = lattice == nullptr && !intake.repeated_rows();
  const size_t num_shards = slices.size();
  std::vector<std::unique_ptr<shard::LocalShardBackend>> backends;
  std::vector<shard::ShardBackend*> shards;
  backends.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto backend = std::make_unique<shard::LocalShardBackend>(
        db, "s" + std::to_string(i));
    slices[i].anti_monotone = anti_monotone;
    backend->SetSlice(std::move(slices[i]));
    shards.push_back(backend.get());
    backends.push_back(std::move(backend));
  }

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
  result.value().sales_rows = intake.sales_rows();
  result.value().kept_rows = intake.kept_rows();
  return result;
}

}  // namespace

Result<MiningResult> SetmMiner::Mine(const TransactionDb& transactions,
                                     const MiningOptions& options) {
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  size_t total = 0;
  for (const Transaction& t : transactions) total += t.items.size();
  return MinePartitioned(
      db_, setm_options_, options, lattice_, trace_, total, INT32_MAX,
      [&transactions](shard::SalesIntake* intake) {
        for (const Transaction& t : transactions) {
          for (ItemId item : t.items) intake->Add(t.id, item);
        }
        return Status::OK();
      });
}

Result<MiningResult> SetmMiner::MineTable(const Table& sales,
                                          const MiningOptions& options,
                                          TransactionId max_tid,
                                          uint64_t max_tid_rows) {
  return MinePartitioned(db_, setm_options_, options, lattice_, trace_,
                         max_tid_rows != 0 ? max_tid_rows : sales.num_rows(),
                         max_tid,
                         [&sales](shard::SalesIntake* intake) {
                           return shard::ExtractRows(sales, intake);
                         });
}

}  // namespace setm
