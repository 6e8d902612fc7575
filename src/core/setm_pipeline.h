#ifndef SETM_CORE_SETM_PIPELINE_H_
#define SETM_CORE_SETM_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/itemset_counts.h"
#include "core/setm.h"
#include "exec/exec_context.h"
#include "relational/int_relation.h"

namespace setm {

// The join/count/filter bodies of Algorithm SETM over transaction groups.
// They iterate in one place, shard::LocalShardBackend under
// shard::DistributedMine: every SetmMiner mine (serial as one shard,
// threaded as N, and each per-class run of ClassedSetmMiner), every
// sharded database and every remote LCOUNT/MERGE request runs them there.
// R_1 is a GroupedRelation of (trans_id, item): the transactions of SALES
// with two rows or more. A one-row transaction is no row of any R'_k with
// k >= 2, so the intake counts it in C_1, |R_1| and |D| but does not write
// it (the transaction trimming of DHP, Park, Chen and Yu 1995). Every R_k
// with k >= 2 is stored in candidate-id space, (trans_id, C_k id), where the id
// names the row's itemset (item_1..item_k) in C_k. Ids follow itemset
// order, so R_k kept sorted on (trans_id, id) is sorted on (trans_id,
// item_1..item_k), the paper's order. Both are stored as one group per
// transaction, its trans_id once and its ascending ids as varint deltas
// (relational/int_relation.h), where the paper's rows take (k+1)·4 bytes
// each. R'_k is never stored. Each iteration k makes one pass, the one
// that writes R_k: the merge-scan join of R_{k-1} with R_1 streams R'_k a
// transaction at a time, the rows whose items are in C_k are appended to
// R_k as the transaction's group, and each kept row's extensions, the rows
// of R'_{k+1}, go straight into the next level's count. So C_{k+1} is
// counted without a join of its own and each iteration reads R_{k-1} and
// R_1 once (the fusion of AprioriTid, Agrawal and Srikant 1994). Pass 2
// joins R_1 with itself, so it reads R_1 once in all.
//
// The pass works in candidate-id space, as AprioriTid's candidate ids and
// Bodon's prefix trie of candidates (FIMI 2003) do. A C_k itemset's id is
// its position in itemset order (CandidateLevel), so the children of one
// C_{k-1} itemset have consecutive ids, ascending on their last item. Pass
// k loads each transaction's items into one table indexed by C_1 rank (each
// item's copies and the R_1 rows above it), reads a left R_{k-1} row's
// C_{k-1} id (its item's rank in C_1 for k = 2, its id for k >= 3) and
// keeps that parent's children whose last item the transaction holds, a
// table look-up per child. Nothing is hashed per R'_k row. Each match's C_k
// id goes into the transaction's R_k group, and each kept row's extensions
// are counted by the one-word key (C_k id, rank of the extension item in
// C_1) (ExtensionCount), handed over as (C_k id, item). An extension by an
// item outside C_1 only adds to |R'_{k+1}|: its support is at most that
// item's, so it cannot be frequent.
//
// When counts are anti-monotone (no itemset counts more than a subset of
// it) and C_k holds every k-itemset that reaches minsupport, an extension
// X + {i} of a kept row X = P + {x} can be frequent only if its sibling
// P + {i} is in C_k (the join of Apriori, Agrawal and Srikant 1994), and
// a transaction holding X + {i} keeps P + {i} as well. Then a kept row
// counts only the ranks of its parent's children that the transaction
// keeps after it, and a count ships no key that the merge would drop.
// That holds for a mine of SALES that repeats no (trans_id, item) row and
// has no lattice (shard::ShardSlice::anti_monotone): its counts are
// supports. A repeated row breaks it ({1, 2, 2, 3} counts {1, 2, 3} twice
// and {1, 3} once), and so does a lattice, whose C_k holds only its
// members. Every other run counts each C_1 item above x. |R'_{k+1}| is
// counted whole either way. The SQL engine's Tuple/Value path (and with
// it setm-sql, the paper's SQL formulation) is not used here.

/// Streams the merge-scan join of `left`, a cursor over R_{k-1}, with `r1`
/// (R_1) on trans_id, a transaction at a time. Calls `visit(p, items,
/// items_end)` (returns a Status) once per left transaction p, in `left`'s
/// order, where [items, items_end) are p's transaction's R_1 items,
/// ascending (a repeated SALES row repeats its item), and empty when R_1
/// has no such transaction. A null `r1` means `left` is R_1 itself, the
/// self-join of pass 2: p's items are p's own ids, and R_1 is read once.
/// R'_k's rows for a left row (p.tid, id) are the id's itemset extended by
/// each of those items above its item_{k-1}, in order, so R'_k arrives
/// sorted on (trans_id, item_1..item_k) like the inputs. Both ranges are
/// valid for the call only. Stops at the first error.
template <typename Visit>
Status JoinLeftRows(GroupCursor* left, const GroupedRelation* r1,
                    Visit visit) {
  std::unique_ptr<GroupCursor> r1_groups =
      r1 != nullptr ? r1->Scan() : nullptr;
  IdGroup q;  // the first R_1 transaction not below the left one
  bool q_valid = false;
  const auto next_q = [&]() -> Status {
    auto more = r1_groups->Next(&q);
    if (!more.ok()) return more.status();
    q_valid = more.value();
    return Status::OK();
  };
  if (r1_groups != nullptr) SETM_RETURN_IF_ERROR(next_q());
  IdGroup p;
  while (true) {
    auto more = left->Next(&p);
    if (!more.ok()) return more.status();
    if (!more.value()) return Status::OK();
    const ItemId* items = p.begin;
    const ItemId* items_end = p.end;
    if (r1_groups != nullptr) {
      while (q_valid && q.tid < p.tid) SETM_RETURN_IF_ERROR(next_q());
      const bool joined = q_valid && q.tid == p.tid;
      items = joined ? q.begin : nullptr;
      items_end = joined ? q.end : nullptr;
    }
    // The one call site of the pass body, so that it inlines.
    SETM_RETURN_IF_ERROR(visit(p, items, items_end));
  }
}

/// Dense ranks 0..n-1 of n distinct items in ascending order: C_1's items,
/// or the items of a lattice, the only ones its count reads.
class ItemRanks {
 public:
  static constexpr int32_t kAbsent = -1;

  ItemRanks() = default;
  /// `items` ascending and distinct.
  explicit ItemRanks(std::vector<ItemId> items);

  /// The dense rule: a table over `span` consecutive items serves `n`
  /// items (or rows) while it takes at most a few entries for each.
  static bool DenseSpan(uint64_t span, uint64_t n) {
    return span <= kDenseSpanPerItem * n + kDenseSpanSlack;
  }

  size_t size() const { return items_.size(); }
  ItemId item(int32_t rank) const { return items_[rank]; }
  /// Bytes held: the items and, when the span is small, the table.
  size_t bytes() const {
    return (items_.capacity() + table_.capacity()) * sizeof(int32_t);
  }

  /// `item`'s rank, or kAbsent. A table lookup when the items' span passes
  /// the dense rule, else a binary search.
  int32_t RankOf(ItemId item) const {
    if (!table_.empty()) {
      const uint64_t at = static_cast<uint64_t>(int64_t{item} - base_);
      return at < table_.size() ? table_[at] : kAbsent;
    }
    const auto it = std::lower_bound(items_.begin(), items_.end(), item);
    return it != items_.end() && *it == item
               ? static_cast<int32_t>(it - items_.begin())
               : kAbsent;
  }

 private:
  /// A table over the items' span is used while the span is at most
  /// kDenseSpanPerItem entries per item, plus kDenseSpanSlack.
  static constexpr uint64_t kDenseSpanPerItem = 4;
  static constexpr uint64_t kDenseSpanSlack = 1024;

  std::vector<ItemId> items_;
  int64_t base_ = 0;            ///< the smallest item, table_[0]'s
  std::vector<int32_t> table_;  ///< rank by item - base_; empty: search
};

/// The key space of a count of R'_k rows: every R'_k row is a parent, a
/// (k-1)-itemset with a dense id, extended by one item of an alphabet with
/// dense ranks. Parent ids follow itemset order and ranks item order, so
/// (id, rank) order is itemset order.
struct ExtensionSpace {
  /// Per parent, by id, its last item's rank in `alphabet`: its
  /// extensions rank above it.
  std::vector<int32_t> last_rank;
  ItemRanks alphabet;

  size_t num_parents() const { return last_rank.size(); }
};

/// Appends `count` occurrences of `key` (k ints) as (key, count) rows: the
/// row form of the count's spilled runs and of a shard's counts. A row's
/// count is an int32, so a larger count takes several consecutive rows,
/// which a merge sums like the counts of one key from several inputs.
void AppendEntry(const ItemId* key, size_t k, int64_t count,
                 std::vector<int32_t>* rows);

/// The summing k-way merge: reads `inputs`, cursors over (key, count) rows
/// sorted on the key (k ints), and calls `fn(key, count)` (returns a
/// Status) once per key, in key order, with its counts summed over every
/// input. Inputs are few (at most kMergeFanIn runs and a table's
/// remainder, or one reply per shard), so the heads are scanned linearly.
/// The caller keeps the sums within int64. Stops at the first error. A
/// template so that `fn` inlines: through a std::function the
/// coordinator's merge takes two thirds longer.
template <typename Fn>
Status SumByKey(size_t k, std::vector<std::unique_ptr<IntRowCursor>> inputs,
                Fn fn) {
  std::vector<const int32_t*> heads(inputs.size());  // null once drained
  const auto advance = [&](size_t i) -> Status {
    auto more = inputs[i]->Next(&heads[i]);
    if (!more.ok()) return more.status();
    if (!more.value()) heads[i] = nullptr;
    return Status::OK();
  };
  for (size_t i = 0; i < inputs.size(); ++i) SETM_RETURN_IF_ERROR(advance(i));
  std::vector<ItemId> key(k);
  while (true) {
    const int32_t* least = nullptr;
    for (const int32_t* head : heads) {
      if (head != nullptr &&
          (least == nullptr ||
           std::lexicographical_compare(head, head + k, least, least + k))) {
        least = head;
      }
    }
    if (least == nullptr) return Status::OK();
    key.assign(least, least + k);
    int64_t count = 0;
    for (size_t i = 0; i < heads.size(); ++i) {
      while (heads[i] != nullptr &&
             std::equal(key.begin(), key.end(), heads[i])) {
        count += heads[i][k];
        SETM_RETURN_IF_ERROR(advance(i));
      }
    }
    SETM_RETURN_IF_ERROR(fn(key.data(), count));
  }
}

/// What one count did.
struct CountStats {
  uint64_t rows = 0;             ///< itemsets counted: the |R'_k| rows
  uint64_t spilled_runs = 0;     ///< runs of aggregated entries written
  uint64_t spilled_entries = 0;  ///< (key, count) entries in those runs
  uint64_t merge_passes = 0;     ///< cascaded passes over the spilled runs
  uint64_t peak_bytes = 0;  ///< the table's largest allocation, at Finish()
  uint64_t probes = 0;      ///< hash probes of its table
};

/// The count, "sort R'_k on item_1..item_k; C_k := generate counts", of
/// fixed-width int keys within a memory budget: ExtensionCount's hashed
/// table, keyed by (parent id, extension rank). Each key is aggregated into
/// an ItemsetCounts. When a new key would grow the table past the budget,
/// the table's entries are sorted on their keys and written to scratch
/// pages as one run of (key, count) rows, a packed IntRelation in the
/// context's pool whose pages the merge releases as it reads them, and the
/// table is emptied. A run holds each key once (a count above INT32_MAX
/// takes several consecutive rows). Finish() merges the runs with the table's
/// remainder in one summing k-way merge of at most kMergeFanIn runs
/// (exec/external_sort.h): while more runs are left, it first merges
/// groups of consecutive runs into summed runs, each key once per group.
/// Only the final merge applies the count floor, so a key counted across
/// runs survives on its total.
///
/// With no spill this is hash aggregation; under a small budget it is
/// early aggregation ahead of the paper's sort-merge (Graefe 1993, Larson
/// 2002), which writes at most one row per key per run instead of one per
/// R'_k row, and sums at every merge pass. Results are identical for every
/// budget. The table fills its budget (ItemsetCounts::MaxEntriesWithin); a
/// budget below the table's initial allocation spills every 32 new keys.
class BudgetedCount {
 public:
  /// No budget: the table grows as needed and never spills.
  static constexpr size_t kUnbounded = SIZE_MAX;

  /// Counts keys of `k` ints in at most `budget_bytes` of table
  /// (ItemsetCounts::bytes()), spilling runs to scratch pages in `ctx`'s
  /// pool, tagged by its unlogged-page tagger.
  BudgetedCount(ExecContext ctx, size_t k, size_t budget_bytes);

  size_t k() const { return k_; }

  /// Counts `count` occurrences of `key` (k ints).
  Status Add(const ItemId* key, int64_t count = 1) {
    stats_.rows += static_cast<uint64_t>(count);
    ++stats_.probes;
    if (table_.TryAdd(key, count, budget_bytes_)) return Status::OK();
    return SpillAndAdd(key, count);
  }

  /// Calls `emit(key, count)` for every key counted at least `min_count`
  /// times, in key order, spilled or not. Call once.
  Status Finish(int64_t min_count,
                const std::function<void(const ItemId*, int64_t)>& emit);

  const CountStats& stats() const { return stats_; }

 private:
  Status SpillAndAdd(const ItemId* key, int64_t count);
  /// Writes `rows`, (key, count) rows in key order, as a new run.
  Status WriteRun(const std::vector<int32_t>& rows);
  /// Sums groups of kMergeFanIn consecutive runs into one run each.
  Status MergePass();

  ExecContext ctx_;
  size_t k_;
  size_t budget_bytes_;
  ItemsetCounts table_;
  /// Spilled runs in spill order: rows (key, count), sorted on the key.
  std::vector<std::unique_ptr<IntRelation>> runs_;
  CountStats stats_;
};

/// The count of R'_k in candidate-id space: each row is keyed by (parent
/// id, extension rank) in an ExtensionSpace, and Finish() hands the keys
/// over as (parent id, item), the shard exchange's key. When the space's
/// counters (one int64 per parent and alphabet item above its last one)
/// fit both the budget and the sort budget, the count is a dense array
/// that hashes nothing. Otherwise it is a BudgetedCount of (id, rank) keys
/// within the budget, spilling runs in (id, rank) order, which is itemset
/// order.
///
/// A shard passes min_count = 1 (support is a global property, so local
/// counts must all survive to the merge) unless it is the run's only
/// shard, whose local counts are global: then it passes minsupport, as
/// the paper's single pipeline does. Finish() records rows, spilled runs,
/// spilled entries and merge passes in setm_count_rows_total,
/// setm_count_spilled_runs_total, setm_count_spilled_entries_total and
/// setm_count_merge_passes_total, hash probes in setm_itemset_probes_total,
/// and raises the setm_mem_count_bytes high-water mark to peak_bytes; a
/// count dropped unfinished records nothing.
class ExtensionCount {
 public:
  /// Counts rows over `space`, which must outlive the count, within
  /// `budget_bytes` (BudgetedCount::kUnbounded: the hashed table never
  /// spills). The dense array's ceiling is also `ctx.sort_memory_bytes`.
  ExtensionCount(ExecContext ctx, const ExtensionSpace* space,
                 size_t budget_bytes);

  /// Counts `n` R'_k rows in |R'_k|; only those also passed to
  /// AddExtensions can be frequent.
  void AddRows(uint64_t n) { stats_.rows += n; }

  /// Counts parent `id` extended by each alphabet rank in [first, last),
  /// all above the parent's last rank.
  Status AddExtensions(uint32_t id, const int32_t* first,
                       const int32_t* last) {
    if (hashed_ == nullptr) {
      const int64_t shift = shift_[id];
      for (; first != last; ++first) ++dense_[shift + *first];
      return Status::OK();
    }
    for (; first != last; ++first) {
      const ItemId key[2] = {static_cast<ItemId>(id), *first};
      SETM_RETURN_IF_ERROR(hashed_->Add(key));
    }
    return Status::OK();
  }

  /// Appends a (parent id, item, count) row to `rows` for every key
  /// counted at least `min_count` times, in key order, whether the count is
  /// dense, hashed or spilled; a count above INT32_MAX takes consecutive
  /// rows (AppendEntry). Call once.
  Status Finish(int64_t min_count, std::vector<int32_t>* rows);

  const CountStats& stats() const { return stats_; }

 private:
  const ExtensionSpace* space_;
  CountStats stats_;
  /// Dense: parent id's counter of rank r is dense_[shift_[id] + r], one
  /// per rank above its last rank.
  std::vector<int64_t> shift_;
  std::vector<int64_t> dense_;
  std::unique_ptr<BudgetedCount> hashed_;  ///< null when dense
};

/// C_1's count, taken as R_1 is written: each row counted by its item,
/// with no alphabet known in advance. The counters are a dense array by
/// item, from item 0, while the largest item passes ItemRanks' dense rule
/// for the rows expected or counted, whichever is more, and the array fits
/// ExtensionCount's dense ceiling (the budget and the sort budget). Past
/// either, or at a negative item, the counts move into a BudgetedCount of
/// (0, item) keys within the budget, which spills like any count. Finish()
/// hands over (0, item, count) rows, C_1's keys extending the empty
/// itemset, and records the ledger as ExtensionCount::Finish does; a
/// count dropped unfinished records nothing.
class ItemCount {
 public:
  /// Counts within `budget_bytes` (BudgetedCount::kUnbounded: the hashed
  /// table never spills) about `expected_rows` rows.
  ItemCount(ExecContext ctx, size_t budget_bytes, uint64_t expected_rows);

  /// Counts one transaction's `n` items, ascending.
  Status Add(const ItemId* items, size_t n) {
    stats_.rows += n;
    if (hashed_ == nullptr &&
        (n == 0 || (items[0] >= 0 &&
                    static_cast<size_t>(items[n - 1]) < dense_.size()))) {
      for (size_t i = 0; i < n; ++i) ++dense_[static_cast<size_t>(items[i])];
      return Status::OK();
    }
    return AddOutside(items, n);
  }

  /// As ExtensionCount::Finish: a (0, item, count) row for every item
  /// counted at least `min_count` times, in item order. Call once.
  Status Finish(int64_t min_count, std::vector<int32_t>* rows);

  const CountStats& stats() const { return stats_; }

 private:
  /// Counts items the dense array does not reach: grows it, or moves the
  /// count into the hashed table.
  Status AddOutside(const ItemId* items, size_t n);

  ExecContext ctx_;
  size_t budget_bytes_;
  uint64_t expected_rows_;
  size_t max_counters_;  ///< the dense ceiling
  CountStats stats_;
  std::vector<int64_t> dense_;             ///< by item
  std::unique_ptr<BudgetedCount> hashed_;  ///< null while dense
};

/// C_k with dense ids, as pass k and the count of R'_{k+1} use it.
struct CandidateLevel {
  size_t k = 0;
  /// C_k's last items' ranks in C_1 by id, and C_1: the key space of
  /// R'_{k+1}'s count.
  ExtensionSpace space;
  /// C_k ids [first_child[p], first_child[p + 1]) extend C_{k-1} id p (for
  /// k = 1, p = 0 is the empty itemset).
  std::vector<uint32_t> first_child;

  size_t size() const { return space.num_parents(); }
};

/// The per-key check of C_k's keys against `prev`, C_{k-1} (null for
/// k = 1), and `last`, the key before (null for the first): the keys
/// strictly ascend; for k = 1 the parent is 0, the empty itemset; for
/// k >= 2 the parent is an id of C_{k-1} and the item is in C_1 and above
/// the parent's last item. Returns the item's rank in C_1 (0 for k = 1),
/// or InvalidArgument naming the key.
Result<int32_t> CheckKey(const CandidateLevel* prev, const CandidateKey* last,
                         CandidateKey key);

/// Gives C_k, whose keys `keys` extend `prev` (C_{k-1}; null for k = 1,
/// whose keys extend the empty itemset and are C_1 itself), its dense ids:
/// a key's id is its position. InvalidArgument unless every key passes
/// CheckKey.
Result<CandidateLevel> IndexCandidates(size_t k,
                                       const std::vector<CandidateKey>& keys,
                                       const CandidateLevel* prev);

/// The one pass of iteration k, the filter: appends to `out` the rows of
/// R'_k whose items are in `ck` ("simple table look-ups on relation C_k"),
/// as one group (trans_id, C_k ids) per transaction, and counts the kept
/// rows' extensions, R'_{k+1}, into `next` (over ck.space) unless it is
/// null. For k >= 2 R'_k is the join of `left`, a scan of R_{k-1}, with
/// `r1`, R_1; for k = 2 `left` scans R_1 and `r1` is null, the self-join
/// (JoinLeftRows). So R_k comes out sorted on (trans_id, C_k id), which is
/// (trans_id, item_1..item_k) order, without a sort. For k >= 3 a left id
/// is a C_{k-1} id in `prev` (C_{k-1}; null for k <= 2); an id outside
/// [0, |C_{k-1}|) is Corruption naming R_{k-1}. For k = 2 a left id is an
/// R_1 item, and its C_1 id is the item's rank. A left row's R'_k rows in
/// C_k are its C_{k-1} itemset's children whose last item the transaction
/// holds, found through the transaction's table by C_1 rank, one look-up
/// per child; nothing is hashed but `next`'s keys, when it is a hashed
/// count. With `anti_monotone` (C_k holds every k-itemset that reaches
/// minsupport and counts are anti-monotone; see above) a kept row's
/// extensions are its later kept siblings only, else every C_1 item above
/// its last one; either way each kept row adds all of its R'_{k+1} rows to
/// |R'_{k+1}|.
/// For k == 1 `left` scans R_1 itself and R'_2 pairs the items of each
/// transaction in the R_1 that pass 2 joins: `out`, R_1 without the items
/// outside C_1 and the transactions left with one row, under the filter_r1
/// ablation, and R_1 whole when `out` is null; `r1` is unused. Every such
/// pair adds to |R'_2|, but only a pair of C_1 items is
/// counted, keyed by (C_1 rank, C_1 rank), so the count is a triangle over
/// C_1. `left` may be a last scan (GroupedRelation::LastScan) that
/// releases R_{k-1} page by page while `out` grows. `out` is Finish()ed,
/// ready to scan.
Status FilterByCk(GroupCursor* left, const GroupedRelation* r1,
                  const CandidateLevel* prev, const CandidateLevel& ck,
                  bool anti_monotone, GroupedRelation* out,
                  ExtensionCount* next);

}  // namespace setm

#endif  // SETM_CORE_SETM_PIPELINE_H_
