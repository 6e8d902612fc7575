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
// items. R'_k is never stored. Each iteration k makes one pass, the one
// that writes R_k: the merge-scan join of R_{k-1} with R_1 streams R'_k,
// the rows whose items are in C_k are appended to R_k, and each kept
// row's extensions, the rows of R'_{k+1}, go straight into the next
// level's BudgetedCount. So C_{k+1} is counted without a join of its own
// and each iteration reads R_{k-1} and R_1 once (the fusion of AprioriTid,
// Agrawal and Srikant 1994). The SQL engine's Tuple/Value path (and with
// it setm-sql, the paper's SQL formulation) is not used here.

/// Streams R'_k: the merge-scan join of `left`, a cursor over R_{k-1}'s k
/// columns (trans_id, item_1..item_{k-1}), with `r1` (R_1, width 2) on
/// trans_id, keeping extensions with q.item > p.item_{k-1}, projected to
/// (trans_id, item_1..item_k). Calls
/// `visit(row, rest, rest_end)` (returns a Status) once per row, in
/// merge-join order — each left row followed by its transaction's
/// qualifying R_1 items, in order — so the rows arrive sorted on
/// (trans_id, item_1..item_k) like the inputs. `row` is k+1 ints and
/// [rest, rest_end) the transaction's R_1 items greater than item_k: the
/// row's own extensions, R'_{k+1}'s rows should it be kept. Both are valid
/// for the call only. Stops at the first error.
template <typename Visit>
Status JoinRkPrime(IntRowCursor* left, size_t k, const IntRelation& r1,
                   Visit visit) {
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
  return ForEachRow(left, [&](const int32_t* p) -> Status {
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
    const ItemId* begin = items.data();
    const ItemId* end = begin + items.size();
    for (const ItemId* it = std::upper_bound(begin, end, p[k - 1]);
         it != end; ++it) {
      row[k] = *it;
      // The row's extensions start past every copy of item_k: a
      // transaction that repeats an item does not extend with it again.
      SETM_RETURN_IF_ERROR(
          visit(row.data(), std::upper_bound(it, end, *it), end));
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

/// The count, "sort R'_k on item_1..item_k; C_k := generate counts",
/// within a memory budget. Each R'_k row's itemset is aggregated into an
/// ItemsetCounts. When a new itemset would grow the table past the budget,
/// the table's entries are sorted on their items and written to scratch
/// pages as one IntRowSort run of (item_1..item_k, count) rows, and the
/// table is emptied. Finish() merges the runs with the table's remainder,
/// sums the counts of equal itemsets and only then applies the count
/// floor, so an itemset counted across runs survives on its total.
///
/// With no spill this is hash aggregation; under a small budget it is
/// early aggregation ahead of the paper's sort-merge (Graefe 1993, Larson
/// 2002), which writes at most one row per itemset per run instead of one
/// per R'_k row. Results are identical for every budget. The table fills
/// its budget (ItemsetCounts::MaxEntriesWithin); a budget below the
/// table's initial allocation spills every 32 new itemsets.
///
/// Finish() records rows and spilled runs in setm_count_rows_total and
/// setm_count_spilled_runs_total, and raises the setm_mem_count_bytes
/// high-water mark to peak_bytes.
class BudgetedCount {
 public:
  /// No budget: the table grows as needed and never spills.
  static constexpr size_t kUnbounded = SIZE_MAX;

  /// Counts k-itemsets in at most `budget_bytes` of table (ItemsetCounts::
  /// bytes()), spilling runs to scratch pages in `ctx`'s pool.
  BudgetedCount(ExecContext ctx, size_t k, size_t budget_bytes);

  size_t k() const { return k_; }

  /// Counts one occurrence of `items` (k ints).
  Status Add(const ItemId* items) {
    ++stats_.rows;
    if (table_.TryAdd(items, 1, budget_bytes_)) return Status::OK();
    return SpillAndAdd(items);
  }

  /// Counts `prefix` (k-1 ints) extended by each item of [first, last):
  /// the R'_k rows of one kept R_{k-1} row.
  Status AddExtensions(const ItemId* prefix, const ItemId* first,
                       const ItemId* last) {
    std::copy_n(prefix, k_ - 1, key_.begin());
    for (; first != last; ++first) {
      key_[k_ - 1] = *first;
      SETM_RETURN_IF_ERROR(Add(key_.data()));
    }
    return Status::OK();
  }

  /// Appends every itemset counted at least `min_count` times to `out`: in
  /// item order after a spill, in insertion order otherwise. Call once.
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
  std::vector<ItemId> key_;  ///< AddExtensions' itemset being counted
};

/// Counts the R'_2 rows of one transaction whose R_1 items are `items`
/// (ascending): each item extended by every larger one.
Status CountPairs(const std::vector<ItemId>& items, BudgetedCount* pairs);

/// The one pass of iteration k, the filter: appends to `out` (width k+1,
/// for ck.k() == k) the rows of R'_k whose items are in `ck` ("simple
/// table look-ups on relation C_k"), in the order they arrive, and counts
/// the kept rows' extensions, R'_{k+1}, into `next` unless it is null. For
/// k >= 2 R'_k is the join of `left`, a scan of R_{k-1} (width k), with
/// `r1`, so R_k comes out sorted on (trans_id, item_1..item_k) without a
/// sort. For k == 1 (the filter_r1 ablation) `left` scans R_1 itself,
/// filtered as is; `out` is the new R_1, and R'_2 the pairs of each
/// transaction's kept items. `left` may be a last scan
/// (IntRelation::LastScan) that releases R_{k-1} page by page while `out`
/// grows. `out` is Finish()ed, ready to scan.
Status FilterByCk(IntRowCursor* left, const IntRelation& r1,
                  const ItemsetCounts& ck, IntRelation* out,
                  BudgetedCount* next);

}  // namespace setm

#endif  // SETM_CORE_SETM_PIPELINE_H_
