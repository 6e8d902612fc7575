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

/// A contiguous range of a SALES source, read by one intake: its units
/// [begin, end), rows of a table or transactions of a TransactionDb, and
/// the rows it is expected to keep.
struct SalesRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t expected_rows = 0;
};

/// SALES written as the shards' R_1s, with the intake's counts.
struct IntakeResult {
  std::vector<shard::ShardSlice> slices;
  uint64_t sales_rows = 0;
  uint64_t kept_rows = 0;
  bool repeated_rows = false;
};

/// Reads SALES, `ranges` in source order, through `read(intake, begin,
/// end)`. Two or more ranges are read in parallel on `pool`, one
/// one-shard SalesIntake each, and their slices are concatenated, empty
/// ones dropped, if no range descends and every range's largest kept
/// trans_id is below the next range's smallest. Otherwise, and for a
/// single range, one intake reads the whole source and cuts it into at
/// most `num_shards` shards as it reads. After disordered ranges it
/// buffers every row, to sort them; a single range is read once more,
/// buffered, if its rows descend (ReadSalesInto).
template <typename Read>
Result<IntakeResult> ReadSales(const ExecContext& ctx,
                         const shard::ShardRunOptions& run, size_t num_shards,
                         TransactionId max_tid,
                         const std::optional<ItemRanks>& items,
                         const std::vector<SalesRange>& ranges,
                         WorkerPool* pool, Read read) {
  IntakeResult out;
  if (ranges.size() > 1) {
    std::vector<std::unique_ptr<shard::SalesIntake>> intakes;
    std::vector<std::vector<shard::ShardSlice>> parts(ranges.size());
    TaskGroup group(pool);
    for (size_t i = 0; i < ranges.size(); ++i) {
      intakes.push_back(std::make_unique<shard::SalesIntake>(
          ctx, run, 1, ranges[i].expected_rows, max_tid, items));
      shard::SalesIntake* intake = intakes.back().get();
      const SalesRange range = ranges[i];
      std::vector<shard::ShardSlice>* part = &parts[i];
      group.Submit([&read, intake, range, part] {
        SETM_RETURN_IF_ERROR(read(intake, range.begin, range.end));
        if (intake->descended()) return Status::OK();
        auto slices = intake->Finish();
        if (!slices.ok()) return slices.status();
        *part = std::move(slices).value();
        return Status::OK();
      });
    }
    SETM_RETURN_IF_ERROR(group.Wait());
    bool ordered = true;
    const shard::SalesIntake* before = nullptr;
    for (const auto& intake : intakes) {
      if (intake->descended()) ordered = false;
      if (intake->kept_rows() == 0) continue;
      if (before != nullptr && before->high_tid() >= intake->low_tid()) {
        ordered = false;
      }
      before = intake.get();
    }
    if (ordered) {
      for (size_t i = 0; i < ranges.size(); ++i) {
        out.sales_rows += intakes[i]->sales_rows();
        out.kept_rows += intakes[i]->kept_rows();
        out.repeated_rows |= intakes[i]->repeated_rows();
        for (shard::ShardSlice& slice : parts[i]) {
          if (slice.transactions != 0) out.slices.push_back(std::move(slice));
        }
      }
      // Nothing kept: one empty R_1, as the one intake writes.
      if (out.slices.empty()) out.slices.push_back(std::move(parts[0][0]));
      return out;
    }
  }
  uint64_t expected_rows = 0;
  for (const SalesRange& range : ranges) expected_rows += range.expected_rows;
  shard::SalesIntake intake(ctx, run, num_shards, expected_rows, max_tid,
                            items);
  if (ranges.size() > 1) intake.Reread();  // disordered ranges
  SETM_RETURN_IF_ERROR(shard::ReadSalesInto(&intake, [&] {
    return read(&intake, ranges.front().begin, ranges.back().end);
  }));
  auto slices = intake.Finish();
  if (!slices.ok()) return slices.status();
  out.slices = std::move(slices).value();
  out.sales_rows = intake.sales_rows();
  out.kept_rows = intake.kept_rows();
  out.repeated_rows = intake.repeated_rows();
  return out;
}

/// Every SETM mine: SALES, `ranges` of it read through `read` (ReadSales),
/// is written as the R_1s of at most num_threads shards cut on trans_id,
/// counting C_1; one LocalShardBackend per shard, DistributedMine driving
/// them. A serial mine is the one-shard case, run inline on the calling
/// thread. The result's I/O ledger includes the read, and the result and
/// the trace carry the intake's counts: rows read and rows kept.
template <typename Read>
Result<MiningResult> MinePartitioned(Database* db, const SetmOptions& so,
                                     const MiningOptions& options,
                                     const FrequentItemsets* lattice,
                                     obs::TraceSpan* trace,
                                     TransactionId max_tid,
                                     const std::vector<SalesRange>& ranges,
                                     Read read) {
  const IoStats io_before = *db->io_stats();
  shard::CoordinatorOptions coord;
  coord.run.storage = so.storage;
  coord.run.count_method = so.count_method;
  coord.trace = trace;
  coord.lattice = lattice;
  // A fan-out of n tasks runs on the database's pool, or on one of n - 1
  // threads: the waiting caller runs a task too (TaskGroup::Wait).
  std::unique_ptr<WorkerPool> owned_pool;
  const auto pool_for = [db, &owned_pool](size_t n) -> WorkerPool* {
    if (n <= 1) return nullptr;
    if (db->worker_pool() != nullptr) return db->worker_pool();
    if (owned_pool == nullptr) owned_pool = std::make_unique<WorkerPool>(n - 1);
    return owned_pool.get();
  };

  auto intake_or = ReadSales(ExecContext::From(db), coord.run,
                             std::max<size_t>(1, so.num_threads), max_tid,
                             LatticeItems(lattice), ranges,
                             pool_for(ranges.size()), read);
  if (!intake_or.ok()) return intake_or.status();
  IntakeResult intake = std::move(intake_or).value();
  if (trace != nullptr) {
    trace->AddCount("sales_rows", intake.sales_rows);
    trace->AddCount("kept_rows", intake.kept_rows);
  }
  // Without a lattice, and with no (trans_id, item) row repeated, every
  // C_k holds each k-itemset that reaches minsupport and counts are
  // supports: the passes may count sibling extensions only.
  const bool anti_monotone = lattice == nullptr && !intake.repeated_rows;
  const size_t num_shards = intake.slices.size();
  std::vector<std::unique_ptr<shard::LocalShardBackend>> backends;
  std::vector<shard::ShardBackend*> shards;
  backends.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto backend = std::make_unique<shard::LocalShardBackend>(
        db, "s" + std::to_string(i));
    intake.slices[i].anti_monotone = anti_monotone;
    backend->SetSlice(std::move(intake.slices[i]));
    shards.push_back(backend.get());
    backends.push_back(std::move(backend));
  }
  coord.pool = pool_for(num_shards);

  auto result = shard::DistributedMine(shards, options, coord);
  if (!result.ok()) return result.status();
  result.value().io = Diff(*db->io_stats(), io_before);
  result.value().sales_rows = intake.sales_rows;
  result.value().kept_rows = intake.kept_rows;
  return result;
}

/// Cuts `transactions`, holding `rows` rows, into at most `parts` ranges
/// of about equal rows. A cut moves forward past transactions that
/// continue the trans_id before it.
std::vector<SalesRange> CutTransactions(const TransactionDb& transactions,
                                        uint64_t rows, size_t parts) {
  std::vector<SalesRange> ranges;
  SalesRange range;
  uint64_t seen = 0;  // rows before transaction t
  for (size_t t = 0; t < transactions.size(); ++t) {
    if (range.expected_rows != 0 && ranges.size() + 1 < parts &&
        seen * parts >= rows * (ranges.size() + 1) &&
        transactions[t].id != transactions[t - 1].id) {
      range.end = t;
      ranges.push_back(range);
      range = SalesRange{t, t, 0};
    }
    range.expected_rows += transactions[t].items.size();
    seen += transactions[t].items.size();
  }
  range.end = transactions.size();
  ranges.push_back(range);
  return ranges;
}

/// Cuts the rows [0, rows) of `sales` into at most `parts` ranges of about
/// equal rows, the last running on to the table's end (past a max_tid
/// run's rows). A cut moves forward past rows that continue the trans_id
/// of the row before it. Only a MemTable is cut: a HeapTable's range scan
/// reads every record before the range, so heap SALES is one range.
Result<std::vector<SalesRange>> CutRows(const Table& sales, uint64_t rows,
                                        size_t parts) {
  const uint64_t n = sales.num_rows();
  rows = std::min(rows, n);
  if (dynamic_cast<const MemTable*>(&sales) == nullptr) parts = 1;
  std::vector<SalesRange> ranges;
  uint64_t begin = 0;
  for (size_t i = 1; i <= parts && begin < n; ++i) {
    uint64_t end = n;
    if (i < parts) {
      end = std::max(begin, rows * i / parts);
      if (end == 0) continue;
      auto cursor_or = sales.ScanInt32Pairs(end - 1, n);
      if (!cursor_or.ok()) return cursor_or.status();
      int32_t tid = 0;
      int32_t prev = 0;
      int32_t item = 0;
      auto more = cursor_or.value()->Next(&prev, &item);
      while (more.ok() && more.value()) {
        more = cursor_or.value()->Next(&tid, &item);
        if (!more.ok() || !more.value() || tid != prev) break;
        ++end;
      }
      if (!more.ok()) return more.status();
    }
    if (end == begin) continue;
    ranges.push_back(
        SalesRange{begin, end, std::min(end, rows) - std::min(begin, rows)});
    begin = end;
  }
  if (ranges.empty()) ranges.push_back(SalesRange{0, n, rows});
  return ranges;
}

}  // namespace

Result<MiningResult> SetmMiner::Mine(const TransactionDb& transactions,
                                     const MiningOptions& options) {
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  uint64_t total = 0;
  for (const Transaction& t : transactions) total += t.items.size();
  return MinePartitioned(
      db_, setm_options_, options, lattice_, trace_, INT32_MAX,
      CutTransactions(transactions, total,
                      std::max<size_t>(1, setm_options_.num_threads)),
      [&transactions](shard::SalesIntake* intake, uint64_t begin,
                      uint64_t end) {
        for (uint64_t t = begin; t < end; ++t) {
          for (ItemId item : transactions[t].items) {
            intake->Add(transactions[t].id, item);
          }
        }
        return Status::OK();
      });
}

Result<MiningResult> SetmMiner::MineTable(const Table& sales,
                                          const MiningOptions& options,
                                          TransactionId max_tid,
                                          uint64_t max_tid_rows) {
  auto ranges = CutRows(sales,
                        max_tid_rows != 0 ? max_tid_rows : sales.num_rows(),
                        std::max<size_t>(1, setm_options_.num_threads));
  if (!ranges.ok()) return ranges.status();
  return MinePartitioned(db_, setm_options_, options, lattice_, trace_,
                         max_tid, ranges.value(),
                         [&sales](shard::SalesIntake* intake, uint64_t begin,
                                  uint64_t end) {
                           return shard::ExtractRows(sales, intake, begin,
                                                     end);
                         });
}

}  // namespace setm
