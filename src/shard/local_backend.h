#ifndef SETM_SHARD_LOCAL_BACKEND_H_
#define SETM_SHARD_LOCAL_BACKEND_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/setm.h"
#include "core/setm_pipeline.h"
#include "relational/int_relation.h"
#include "shard/shard_backend.h"

namespace setm::shard {

/// One SALES row of a shard's slice.
struct ShardRow {
  TransactionId tid = 0;
  ItemId item = 0;

  /// (trans_id, item) order: the order R_1 is kept in.
  bool operator<(const ShardRow& o) const {
    return tid != o.tid ? tid < o.tid : item < o.item;
  }
};

/// The SALES rows one mine keeps: those with trans_id <= max_tid and,
/// for a lattice count, an item among the lattice's. Rows are kept as
/// they arrive, counting the rows read and kept, and their (trans_id,
/// item) order is checked as they go, so rows that arrive sorted are
/// never sorted again.
class SalesIntake {
 public:
  /// `items`, when given, are the only items kept; ItemRanks' lookup
  /// takes memory in proportion to the items, not to their range.
  explicit SalesIntake(TransactionId max_tid = INT32_MAX,
                       std::optional<ItemRanks> items = std::nullopt)
      : max_tid_(max_tid), items_(std::move(items)) {}

  void Reserve(size_t rows) { rows_.reserve(rows); }

  void Add(TransactionId tid, ItemId item) {
    ++sales_rows_;
    if (tid > max_tid_) return;
    if (items_.has_value() && items_->RankOf(item) == ItemRanks::kAbsent) {
      return;
    }
    const ShardRow row{tid, item};
    if (!rows_.empty() && row < rows_.back()) sorted_ = false;
    rows_.push_back(row);
  }

  /// Rows read, kept, and whether the kept rows arrived in order.
  uint64_t sales_rows() const { return sales_rows_; }
  uint64_t kept_rows() const { return rows_.size(); }
  bool sorted() const { return sorted_; }

  /// Hands over the kept rows in (trans_id, item) order, sorted here only
  /// if they arrived out of it.
  std::vector<ShardRow> TakeSorted();

 private:
  TransactionId max_tid_;
  std::optional<ItemRanks> items_;
  std::vector<ShardRow> rows_;
  uint64_t sales_rows_ = 0;
  bool sorted_ = true;
};

/// Reads every row of `sales`, a relation of two INT32 columns, into
/// `intake` in one typed scan (Table::ScanInt32Pairs): no Tuple or Value
/// per row. InvalidArgument, naming the column and its type, for a table
/// of another shape; Corruption for a malformed record.
Status ExtractRows(const Table& sales, SalesIntake* intake);

/// The in-process shard and the only place Algorithm SETM iterates: runs
/// the pipeline bodies of core/setm_pipeline over one SALES slice and
/// reports its local counts. Every SetmMiner mine — serial (one backend)
/// or threaded (one per thread) — runs here under DistributedMine, and so
/// does the server-side implementation of LCOUNT/MERGE, so local, threaded,
/// serial and remote mines cannot drift apart.
///
/// Each iteration makes one pass over its inputs, the one that writes its
/// R_k, and that pass also counts the next iteration's R'_{k+1}, so R'_k
/// is never stored and no join runs twice. Counts and probes work in
/// candidate-id space (core/setm_pipeline.h):
///   - CountFirstIteration builds R_1 from the slice and counts C_1's
///     items, keyed by their ranks among the slice's distinct items.
///   - ApplyGlobalCk(k) checks the global C_k's (parent id, item) keys and
///     gives them dense ids in itemset order (IndexCandidates), then runs
///     FilterByCk: the merge-scan join of R_{k-1} with R_1, each R_{k-1}
///     row's C_{k-1} id read from the row itself (an R_1 row's item ranked
///     in C_1 for k = 2), C_k membership by a sorted merge with that
///     itemset's children, R_k appended a transaction at a time as its
///     group of C_k ids in join order (already its sorted order), and each
///     kept row's extensions
///     counted by (C_k id, C_1 rank) into the ExtensionCount of R'_{k+1},
///     finished before it returns.
///     ApplyGlobalCk(1) scans R_1 once and counts R'_2, the item pairs of
///     each transaction, as a triangle over C_1's ranks; under filter_r1
///     the same scan rewrites R_1 without the items outside C_1. The level
///     is kept as the next call's C_{k-1}. No count outlives the call that
///     starts it: between calls a shard holds its relations and C_{k-1},
///     never a partial count.
/// Every count is handed over as (parent id, item, count) rows in key
/// order, the exchange's one format: no itemset is spelled out here.
/// A count is a dense array when its counters fit the sort budget, and
/// otherwise a hashed table within the sort budget under kSortMerge and
/// unbounded under kHash. No count is started past the run's
/// max_pattern_length.
/// CountFirstIteration comes once, first; then ApplyGlobalCk(1), (2), ...
/// in order. Anything else is InvalidArgument naming the shard.
///
/// Local counts use min_count = 1 unless the coordinator sets a count floor
/// (SetCountFloor): a sole shard's counts are global, so it counts with
/// the global minsupport from k = 2 on, like the paper's single pipeline.
///
/// The slice comes from one of two sources, chosen before BeginRun:
///   - SetRows(rows): a fixed in-memory slice, held (sorted) across runs
///     (SetmMiner and tests use this).
///   - BindTable(name): re-extracted from `db`'s catalog at every BeginRun,
///     so a long-lived backend sees rows appended between runs (the server
///     and file-shard members use this).
///
/// R_1, (trans_id, item), and R_k (k >= 2), (trans_id, C_k id), are
/// GroupedRelations that never enter the catalog: one group per
/// transaction, its trans_id once and its ids as varint deltas, on page
/// images in memory under kMemory and unlogged pages under kHeap. A
/// reply's r_bytes is the paper's |R_k|·(k+1)·4 bytes, and its r_pages the
/// relation's pages (num_pages()). The backend holds at most R_1, R_{k-1}
/// and the R_k being written: R_1 is created with PageHint::kRetain, so
/// its pages keep their frames in the pool's retained share; pass k >= 3
/// reads R_{k-1} with GroupedRelation::LastScan, releasing it page by
/// page; EndRun releases the
/// rest. A pass that fails ends the run; a malformed C_k is refused before
/// anything changes. No row or key passes through Tuple/Value.
class LocalShardBackend : public ShardBackend {
 public:
  /// `db` is borrowed and must outlive the backend.
  LocalShardBackend(Database* db, std::string name);

  /// Fixes the slice directly, sorting it unless already in (trans_id,
  /// item) order.
  void SetRows(std::vector<ShardRow> rows);

  /// Binds the slice to a catalog table, re-read at every BeginRun.
  void BindTable(std::string table_name);

  const std::string& name() const override { return name_; }
  Status BeginRun(const ShardRunOptions& options) override;
  void SetCountFloor(int64_t floor) override { count_floor_ = floor; }
  Result<ShardReply> CountFirstIteration() override;
  Result<ShardReply> ApplyGlobalCk(
      size_t k, const std::vector<CandidateKey>& ck) override;
  Status EndRun() override;
  Result<ShardHealth> Health() override;

 private:
  /// A count of `k`-itemsets over `space` (null past max_pattern_length).
  std::unique_ptr<ExtensionCount> NewCount(const ExtensionSpace* space,
                                           size_t k) const;

  Database* db_;
  std::string name_;
  std::string table_name_;
  bool bound_to_table_ = false;
  bool running_ = false;

  std::vector<ShardRow> rows_;      ///< sorted slice when SetRows-sourced
  std::vector<ShardRow> run_rows_;  ///< BindTable run's slice, freed by k=1
  ShardRunOptions run_;
  int64_t count_floor_ = 1;         ///< local counts below it are dropped

  std::unique_ptr<GroupedRelation> r1_;  ///< R_1 slice (filtered when asked)
  std::unique_ptr<GroupedRelation> r_prev_;  ///< R_{k-1}; null: use r1
  /// The k the next ApplyGlobalCk must carry; 0 before CountFirstIteration.
  size_t next_k_ = 0;
  /// The last C_k applied, with its ids: the next pass's C_{k-1}.
  CandidateLevel level_;
};

}  // namespace setm::shard

#endif  // SETM_SHARD_LOCAL_BACKEND_H_
