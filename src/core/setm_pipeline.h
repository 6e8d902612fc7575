#ifndef SETM_CORE_SETM_PIPELINE_H_
#define SETM_CORE_SETM_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/itemset_counts.h"
#include "core/setm.h"
#include "exec/external_sort.h"
#include "relational/int_relation.h"

namespace setm {

// The join/count/filter bodies of Algorithm SETM over fixed-width int32
// rows. They iterate in one place, shard::LocalShardBackend under
// shard::DistributedMine: every SetmMiner mine (serial as one shard,
// threaded as N, and each per-class run of ClassedSetmMiner), every
// sharded database and every remote LCOUNT/MERGE request runs them there.
// An R_k is an IntRelation of width k+1, (trans_id, item_1..item_k), kept
// sorted on all of its columns; a C_k is an ItemsetCounts keyed by the k
// items. R'_k is never stored: it is a stream of join rows, produced once
// for the count and once more for the filter. The SQL engine's Tuple/Value
// path (and with it setm-sql, the paper's SQL formulation) is not used here.

/// Streams R'_k: the merge-scan join of `left` (R_{k-1}, width k) with `r1`
/// (R_1, width 2) on trans_id, keeping extensions with q.item >
/// p.item_{k-1}, projected to (trans_id, item_1..item_k). Calls
/// `visit(row)` (k+1 ints, valid for the call only; returns a Status) once
/// per row, in merge-join order — each left row followed by its
/// transaction's qualifying R_1 items, in order — so the rows arrive sorted
/// on (trans_id, item_1..item_k) like the inputs. Stops at the first error.
template <typename Visit>
Status JoinRkPrime(const IntRelation& left, const IntRelation& r1,
                   Visit visit) {
  const size_t k = left.width();  // R_{k-1}: trans_id + k-1 items
  SETM_DCHECK(r1.width() == 2);
  auto r1_rows = r1.Scan();
  const int32_t* q = nullptr;  // the first R_1 row not yet gathered
  bool q_valid = false;
  const auto next_q = [&]() -> Status {
    auto more = r1_rows->Next(&q);
    if (!more.ok()) return more.status();
    q_valid = more.value();
    return Status::OK();
  };
  SETM_RETURN_IF_ERROR(next_q());
  std::optional<TransactionId> tid;  // the transaction `items` belongs to
  std::vector<ItemId> items;         // its R_1 items
  std::vector<int32_t> row(k + 1);   // the R'_k row being assembled
  return ForEachRow(left.Scan().get(), [&](const int32_t* p) -> Status {
    if (tid != p[0]) {
      tid = p[0];
      items.clear();
      while (q_valid && q[0] <= p[0]) {
        if (q[0] == p[0]) items.push_back(q[1]);
        SETM_RETURN_IF_ERROR(next_q());
      }
    }
    // q.item > p.item_{k-1}: the items are in order, so the qualifying ones
    // are a suffix.
    std::copy_n(p, k, row.begin());
    for (auto it = std::upper_bound(items.begin(), items.end(), p[k - 1]);
         it != items.end(); ++it) {
      row[k] = *it;
      SETM_RETURN_IF_ERROR(visit(row.data()));
    }
    return Status::OK();
  });
}

/// What one BudgetedCount did.
struct CountStats {
  uint64_t rows = 0;             ///< itemsets counted: the |R'_k| rows
  uint64_t spilled_runs = 0;     ///< runs of aggregated entries written
  uint64_t spilled_entries = 0;  ///< (itemset, count) rows in those runs
  uint64_t peak_bytes = 0;  ///< the table's largest allocation, at Finish()
};

/// The count pass, "sort R'_k on item_1..item_k; C_k := generate counts",
/// within a memory budget. Each R'_k row's itemset is aggregated into an
/// ItemsetCounts. When a new itemset would grow the table past the budget,
/// the table's entries are sorted on their items and written to temp
/// storage as one IntRowSort run of (item_1..item_k, count) rows, and the
/// table is emptied. Finish() merges the runs with the table's remainder,
/// sums the counts of equal itemsets and only then applies the count
/// floor, so an itemset counted across runs survives on its total.
///
/// With no spill this is hash aggregation; under a small budget it is
/// early aggregation ahead of the paper's sort-merge (Graefe 1993, Larson
/// 2002), which writes at most one row per itemset per run instead of one
/// per R'_k row. Results are identical for every budget. A budget below
/// the table's initial 64 slots spills every 32 new itemsets.
///
/// Finish() records rows and spilled runs in setm_count_rows_total and
/// setm_count_spilled_runs_total, and raises the setm_mem_count_bytes
/// high-water mark to peak_bytes.
class BudgetedCount {
 public:
  /// No budget: the table grows as needed and never spills.
  static constexpr size_t kUnbounded = SIZE_MAX;

  /// Counts k-itemsets in at most `budget_bytes` of table (ItemsetCounts::
  /// bytes()), spilling runs to `ctx`'s temp pool.
  BudgetedCount(ExecContext ctx, size_t k, size_t budget_bytes);

  /// Counts one occurrence of `items` (k ints).
  Status Add(const ItemId* items) {
    ++stats_.rows;
    if (table_.TryAdd(items, 1, budget_bytes_)) return Status::OK();
    return SpillAndAdd(items);
  }

  /// Appends every itemset counted at least `min_count` times to `out`: in
  /// item order after a spill, in table order otherwise. Call once.
  /// A shard passes min_count = 1 (support is a global property, so local
  /// counts must all survive to the merge) unless it is the run's only
  /// shard, whose local counts are global: then it passes minsupport, as
  /// the paper's single pipeline does.
  Status Finish(int64_t min_count, std::vector<PatternCount>* out);

  const CountStats& stats() const { return stats_; }

 private:
  Status SpillAndAdd(const ItemId* items);

  size_t k_;
  size_t budget_bytes_;
  ItemsetCounts table_;
  IntRowSort runs_;  ///< rows: item_1..item_k, count; key: the items
  CountStats stats_;
};

/// The filter pass: appends to `out` (width k+1, for ck.k() == k) the rows
/// of R'_k whose items are in `ck` ("simple table look-ups on relation
/// C_k"), in the order they arrive. For k >= 2 R'_k is the join of `left`
/// (R_{k-1}) with `r1`, run again, so R_k comes out sorted on (trans_id,
/// item_1..item_k) without a sort. For k == 1 (the filter_r1 ablation)
/// `left` is R_1 itself and is filtered as is.
Status FilterByCk(const IntRelation& left, const IntRelation& r1,
                  const ItemsetCounts& ck, IntRelation* out);

}  // namespace setm

#endif  // SETM_CORE_SETM_PIPELINE_H_
