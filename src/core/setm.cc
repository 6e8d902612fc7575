#include "core/setm.h"

#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"
#include "core/setm_pipeline.h"
#include "exec/exec_context.h"
#include "exec/external_sort.h"
#include "exec/operators.h"
#include "shard/sharded_setm.h"

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

std::vector<size_t> SetmMiner::TidItemColumns(size_t k) {
  std::vector<size_t> cols;
  cols.reserve(k + 1);
  for (size_t i = 0; i <= k; ++i) cols.push_back(i);
  return cols;
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

Result<MiningResult> SetmMiner::Mine(const TransactionDb& transactions,
                                     const MiningOptions& options) {
  if (setm_options_.num_threads > 1) {
    // Route before materializing SALES: the shard slices are built straight
    // from the transaction database.
    return shard::ShardedSetmMiner(db_, setm_options_)
        .Mine(transactions, options);
  }
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  auto sales_or =
      NewScratchRelation(db_, setm_options_.storage, "sales", SalesSchema());
  if (!sales_or.ok()) return sales_or.status();
  std::unique_ptr<Table> sales = std::move(sales_or).value();
  for (const Transaction& t : transactions) {
    for (ItemId item : t.items) {
      SETM_RETURN_IF_ERROR(
          sales->Insert(Tuple({Value::Int32(t.id), Value::Int32(item)})));
    }
  }
  return MineTable(*sales, options);
}

Result<MiningResult> SetmMiner::MineTable(const Table& sales,
                                          const MiningOptions& options) {
  if (sales.schema().NumColumns() != 2) {
    return Status::InvalidArgument("SALES must have schema (trans_id, item)");
  }
  if (setm_options_.num_threads > 1) {
    return shard::ShardedSetmMiner(db_, setm_options_)
        .MineTable(sales, options);
  }
  WallTimer total_timer;
  const IoStats io_before = *db_->io_stats();
  ExecContext ctx = ExecContext::From(db_);
  MiningResult result;

  // --- R_1 := SALES sorted on (trans_id, item); count transactions. ------
  const TableBacking backing = setm_options_.storage;
  auto r1_or = NewScratchRelation(db_, backing, "r1", RkSchema(1));
  if (!r1_or.ok()) return r1_or.status();
  std::unique_ptr<Table> r1 = std::move(r1_or).value();
  uint64_t num_transactions = 0;
  {
    auto sorted = std::make_unique<SortIterator>(ctx, sales.Scan(),
                                                 TupleComparator({0, 1}));
    Tuple row;
    bool first = true;
    int32_t prev_tid = 0;
    while (true) {
      auto more = sorted->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      const int32_t tid = row.value(0).AsInt32();
      if (first || tid != prev_tid) {
        ++num_transactions;
        prev_tid = tid;
        first = false;
      }
      SETM_RETURN_IF_ERROR(r1->Insert(row));
    }
  }
  result.itemsets.num_transactions = num_transactions;
  const int64_t minsup = ResolveMinSupportCount(options, num_transactions);

  // --- C_1: group-count R_1 on item, keep count >= minsupport. -----------
  std::unordered_set<std::string> frequent_keys;
  {
    WallTimer iter_timer;
    SETM_RETURN_IF_ERROR(CountInto(
        ctx, *r1, 1, minsup, setm_options_.count_method,
        [&](std::vector<ItemId> items, int64_t count) {
          frequent_keys.insert(ItemsetKey(items));
          result.itemsets.Add(std::move(items), count);
        }));
    IterationStats stats;
    stats.k = 1;
    stats.r_prime_rows = r1->num_rows();
    stats.r_rows = r1->num_rows();
    stats.r_bytes = r1->size_bytes();
    stats.r_pages = r1->num_pages();
    stats.c_size = result.itemsets.OfSize(1).size();
    stats.seconds = iter_timer.ElapsedSeconds();
    result.iterations.push_back(stats);
    SETM_RETURN_IF_ERROR(NotifyIteration(options, stats));
  }

  // Optional ablation: restrict R_1 to frequent items before the loop.
  if (options.filter_r1) {
    auto filtered_or = NewScratchRelation(db_, backing, "r1f", RkSchema(1));
    if (!filtered_or.ok()) return filtered_or.status();
    std::unique_ptr<Table> filtered = std::move(filtered_or).value();
    SETM_RETURN_IF_ERROR(FilterR1Into(
        *r1, [&](const std::string& key) { return frequent_keys.count(key) != 0; },
        filtered.get()));
    r1 = std::move(filtered);
  }

  // --- Main loop (Figure 4). ---------------------------------------------
  std::unique_ptr<Table> r_prev = nullptr;  // R_{k-1}; null means use R_1
  for (size_t k = 2;; ++k) {
    if (options.max_pattern_length != 0 && k > options.max_pattern_length) {
      break;
    }
    WallTimer iter_timer;
    const Table* left_table = r_prev == nullptr ? r1.get() : r_prev.get();
    if (left_table->num_rows() == 0) break;

    // R'_k := merge-scan(R_{k-1}, R_1) on trans_id with q.item > p.item_k-1.
    // Both inputs are maintained sorted on (trans_id, items...), so no sort
    // is needed here — the "sort order tracked across iterations" remark of
    // Section 4.1.
    auto rk_prime_or = NewScratchRelation(
        db_, backing, "r" + std::to_string(k) + "p", RkSchema(k));
    if (!rk_prime_or.ok()) return rk_prime_or.status();
    std::unique_ptr<Table> rk_prime = std::move(rk_prime_or).value();
    SETM_RETURN_IF_ERROR(
        JoinIntoRkPrime(*left_table, *r1, k, rk_prime.get(), {}));

    // C_k := group-count R'_k on items, keep count >= minsupport.
    std::unordered_set<std::string> ck_keys;
    std::vector<PatternCount> ck_rows;
    SETM_RETURN_IF_ERROR(CountInto(
        ctx, *rk_prime, k, minsup, setm_options_.count_method,
        [&](std::vector<ItemId> items, int64_t count) {
          ck_keys.insert(ItemsetKey(items));
          ck_rows.push_back(PatternCount{std::move(items), count});
        }));

    // R_k := filter R'_k by C_k membership, sorted on (trans_id, items).
    auto rk_or = NewScratchRelation(db_, backing, "r" + std::to_string(k),
                                    RkSchema(k));
    if (!rk_or.ok()) return rk_or.status();
    std::unique_ptr<Table> rk = std::move(rk_or).value();
    if (!ck_keys.empty()) {
      SETM_RETURN_IF_ERROR(FilterRkPrimeIntoRk(
          ctx, *rk_prime, k,
          [&](const std::string& key) { return ck_keys.count(key) != 0; },
          rk.get()));
    }

    IterationStats stats;
    stats.k = k;
    stats.r_prime_rows = rk_prime->num_rows();
    stats.r_rows = rk->num_rows();
    stats.r_bytes = rk->size_bytes();
    stats.r_pages = rk->num_pages();
    stats.c_size = ck_rows.size();
    stats.seconds = iter_timer.ElapsedSeconds();
    result.iterations.push_back(stats);

    for (PatternCount& pc : ck_rows) {
      result.itemsets.Add(std::move(pc.items), pc.count);
    }
    SETM_RETURN_IF_ERROR(NotifyIteration(options, stats));
    if (rk->num_rows() == 0) break;
    r_prev = std::move(rk);
  }

  result.itemsets.Normalize();
  result.total_seconds = total_timer.ElapsedSeconds();
  result.io = Diff(*db_->io_stats(), io_before);
  return result;
}

}  // namespace setm
