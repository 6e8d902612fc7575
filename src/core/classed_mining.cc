#include "core/classed_mining.h"

#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"
#include "core/setm_pipeline.h"
#include "exec/exec_context.h"
#include "exec/external_sort.h"
#include "exec/hash_operators.h"
#include "exec/operators.h"

namespace setm {

namespace {

/// Hash key over (class, items...).
std::string ClassedKey(ClassId cls, const std::vector<ItemId>& items) {
  std::string key;
  key.resize(sizeof(ClassId) + items.size() * sizeof(ItemId));
  std::memcpy(key.data(), &cls, sizeof(ClassId));
  std::memcpy(key.data() + sizeof(ClassId), items.data(),
              items.size() * sizeof(ItemId));
  return key;
}

/// Group columns (class, item_1 .. item_k) of a classed R_k row:
/// column 0 is class, 1 is trans_id, 2.. are items.
std::vector<size_t> ClassItemColumns(size_t k) {
  std::vector<size_t> cols;
  cols.reserve(k + 1);
  cols.push_back(0);
  for (size_t i = 2; i < k + 2; ++i) cols.push_back(i);
  return cols;
}

}  // namespace

Schema ClassedSetmMiner::ClassedRkSchema(size_t k) {
  Schema schema;
  schema.AddColumn(Column{"class", ValueType::kInt32});
  schema.AddColumn(Column{"trans_id", ValueType::kInt32});
  for (size_t i = 1; i <= k; ++i) {
    schema.AddColumn(Column{"item" + std::to_string(i), ValueType::kInt32});
  }
  return schema;
}

Result<ClassedMiningResult> ClassedSetmMiner::Mine(
    const TransactionDb& transactions, const CustomerClasses& classes,
    const MiningOptions& options) {
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  WallTimer total_timer;
  ExecContext ctx = ExecContext::From(db_);
  ClassedMiningResult result;

  // Resolve the CUSTOMERS relation into a lookup; duplicates are an error.
  std::unordered_map<TransactionId, ClassId> class_of;
  for (const auto& [tid, cls] : classes.assignments) {
    if (!class_of.emplace(tid, cls).second) {
      return Status::InvalidArgument("transaction " + std::to_string(tid) +
                                     " assigned to two classes");
    }
  }
  auto lookup = [&](TransactionId tid) {
    auto it = class_of.find(tid);
    return it == class_of.end() ? CustomerClasses::kDefaultClass : it->second;
  };

  // Per-class transaction totals and support thresholds.
  std::unordered_map<ClassId, uint64_t> class_txns;
  for (const Transaction& t : transactions) ++class_txns[lookup(t.id)];
  std::unordered_map<ClassId, int64_t> minsup;
  for (const auto& [cls, n] : class_txns) {
    minsup[cls] = ResolveMinSupportCount(options, n);
    result.per_class[cls].num_transactions = n;
  }

  // --- R_1 := SALES ⋈ CUSTOMERS, sorted on (trans_id, item). -------------
  // (Logically the join of the paper's extension; built directly since the
  // class is a function of trans_id.)
  const TableBacking backing = setm_options_.storage;
  auto r1_or = NewScratchRelation(db_, backing, "cr1", ClassedRkSchema(1));
  if (!r1_or.ok()) return r1_or.status();
  std::unique_ptr<Table> r1 = std::move(r1_or).value();
  for (const Transaction& t : transactions) {
    const ClassId cls = lookup(t.id);
    for (ItemId item : t.items) {
      SETM_RETURN_IF_ERROR(r1->Insert(Tuple(
          {Value::Int32(cls), Value::Int32(t.id), Value::Int32(item)})));
    }
  }

  // Streaming (class, items..) -> count aggregation with per-class
  // thresholds; fills per_class C_k and the key set for the filter step.
  auto count_level =
      [&](Table* rk_prime, size_t k,
          std::unordered_set<std::string>* keep) -> Result<uint64_t> {
    auto counts = std::make_unique<HashGroupCountIterator>(
        rk_prime->Scan(), ClassItemColumns(k), /*min_count=*/1);
    Tuple row;
    uint64_t kept = 0;
    while (true) {
      auto more = counts->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      const ClassId cls = row.value(0).AsInt32();
      const int64_t count = row.value(k + 1).AsInt64();
      if (count < minsup[cls]) continue;
      std::vector<ItemId> items;
      items.reserve(k);
      for (size_t i = 1; i <= k; ++i) {
        items.push_back(row.value(i).AsInt32());
      }
      keep->insert(ClassedKey(cls, items));
      result.per_class[cls].Add(std::move(items), count);
      ++kept;
    }
    return kept;
  };

  // --- C_1 and the level-1 filter. ----------------------------------------
  std::unique_ptr<Table> r_prev;
  {
    WallTimer iter_timer;
    std::unordered_set<std::string> keep;
    auto kept = count_level(r1.get(), 1, &keep);
    if (!kept.ok()) return kept.status();
    IterationStats stats;
    stats.k = 1;
    stats.r_prime_rows = r1->num_rows();
    stats.r_rows = r1->num_rows();
    stats.r_bytes = r1->size_bytes();
    stats.r_pages = r1->num_pages();
    stats.c_size = kept.value();
    stats.seconds = iter_timer.ElapsedSeconds();
    result.iterations.push_back(stats);
  }

  // Sort R_1 on (trans_id, item) for the merge-scan loop. Columns:
  // class=0, trans_id=1, item=2.
  {
    ExternalSort sort(ctx, ClassedRkSchema(1), TupleComparator({1, 2}));
    auto it = r1->Scan();
    Tuple row;
    while (true) {
      auto more = it->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      SETM_RETURN_IF_ERROR(sort.Add(std::move(row)));
    }
    auto sorted_or = sort.Finish();
    if (!sorted_or.ok()) return sorted_or.status();
    auto fresh = NewScratchRelation(db_, backing, "cr1s", ClassedRkSchema(1));
    if (!fresh.ok()) return fresh.status();
    SETM_RETURN_IF_ERROR(
        MaterializeInto(sorted_or.value().get(), fresh.value().get()));
    r1 = std::move(fresh).value();
  }

  // --- Main loop, as in SetmMiner but with the class column riding along.
  for (size_t k = 2;; ++k) {
    if (options.max_pattern_length != 0 && k > options.max_pattern_length) {
      break;
    }
    WallTimer iter_timer;
    const Table* left = r_prev == nullptr ? r1.get() : r_prev.get();
    if (left->num_rows() == 0) break;

    // R'_k := merge-scan(R_{k-1}, R_1) on trans_id, q.item > p.item_{k-1}.
    auto rk_prime_or = NewScratchRelation(
        db_, backing, "cr" + std::to_string(k) + "p", ClassedRkSchema(k));
    if (!rk_prime_or.ok()) return rk_prime_or.status();
    std::unique_ptr<Table> rk_prime = std::move(rk_prime_or).value();
    {
      // Left row: (class, tid, i1..i_{k-1}); right row: (class, tid, item).
      const size_t left_width = k + 1;           // columns in the left row
      const size_t last_left_item = left_width - 1;
      const size_t right_item = left_width + 2;  // skip right class, tid
      ExprPtr residual = Binary(BinaryOp::kGt, Col(right_item, "q.item"),
                                Col(last_left_item, "p.item_last"));
      MergeJoinIterator join(left->Scan(), r1->Scan(), {1}, {1},
                             std::move(residual));
      Tuple row;
      std::vector<Value> values;
      while (true) {
        auto more = join.Next(&row);
        if (!more.ok()) return more.status();
        if (!more.value()) break;
        values.clear();
        for (size_t i = 0; i < left_width; ++i) values.push_back(row.value(i));
        values.push_back(row.value(right_item));
        SETM_RETURN_IF_ERROR(rk_prime->Insert(Tuple(values)));
      }
    }

    // C_k per class, then filter R'_k by the surviving (class, items) keys.
    std::unordered_set<std::string> keep;
    auto kept = count_level(rk_prime.get(), k, &keep);
    if (!kept.ok()) return kept.status();

    auto rk_or = NewScratchRelation(db_, backing, "cr" + std::to_string(k),
                                    ClassedRkSchema(k));
    if (!rk_or.ok()) return rk_or.status();
    std::unique_ptr<Table> rk = std::move(rk_or).value();
    if (!keep.empty()) {
      // Sorted back on (trans_id, items) for the next merge-scan.
      std::vector<size_t> order;
      for (size_t i = 1; i < k + 2; ++i) order.push_back(i);
      ExternalSort sort(ctx, ClassedRkSchema(k), TupleComparator(order));
      auto it = rk_prime->Scan();
      Tuple row;
      std::vector<ItemId> items(k);
      while (true) {
        auto more = it->Next(&row);
        if (!more.ok()) return more.status();
        if (!more.value()) break;
        for (size_t i = 0; i < k; ++i) items[i] = row.value(i + 2).AsInt32();
        if (keep.count(ClassedKey(row.value(0).AsInt32(), items)) != 0) {
          SETM_RETURN_IF_ERROR(sort.Add(row));
        }
      }
      auto sorted_or = sort.Finish();
      if (!sorted_or.ok()) return sorted_or.status();
      SETM_RETURN_IF_ERROR(MaterializeInto(sorted_or.value().get(), rk.get()));
    }

    IterationStats stats;
    stats.k = k;
    stats.r_prime_rows = rk_prime->num_rows();
    stats.r_rows = rk->num_rows();
    stats.r_bytes = rk->size_bytes();
    stats.r_pages = rk->num_pages();
    stats.c_size = kept.value();
    stats.seconds = iter_timer.ElapsedSeconds();
    result.iterations.push_back(stats);

    if (rk->num_rows() == 0) break;
    r_prev = std::move(rk);
  }

  for (auto& [cls, itemsets] : result.per_class) itemsets.Normalize();
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace setm
