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
#include "exec/exec_context.h"
#include "relational/int_relation.h"
#include "shard/shard_backend.h"

namespace setm::shard {

/// One shard's SALES as the intake wrote it: its R_1 and C_1's count of
/// R_1's rows, taken in the same pass.
struct ShardSlice {
  std::unique_ptr<GroupedRelation> r1;  ///< sealed: (trans_id, item) groups
  std::unique_ptr<ItemCount> c1;        ///< not yet finished
  uint64_t transactions = 0;
  /// Every C_k of the run holds each k-itemset that reaches minsupport,
  /// and counts are supports: a mine with no lattice of SALES that repeats
  /// no (trans_id, item) row in any shard. Its passes count only sibling
  /// extensions (FilterByCk). The intake leaves it false; the mine that
  /// knows the whole run sets it.
  bool anti_monotone = false;
};

/// The one pass over a mine's SALES, which writes it as R_1: keeps the
/// rows with trans_id <= max_tid and, for a lattice count, an item of the
/// lattice, and appends each kept transaction as one group of its shard's
/// R_1 (PageHint::kRetain: every pass rescans it), counting C_1 in the
/// same pass. A transaction opens the next of at most `num_shards` shards
/// once the current one holds its share of `expected_rows` (scaled by the
/// fraction of rows kept so far), so no shard is empty (but the one shard
/// of an empty SALES). Rows in ascending trans_id
/// order are held a transaction at a time. At the first trans_id below the
/// one before it, the intake reads back and releases what it wrote and
/// buffers every row, to sort them once at Finish() and write the R_1s
/// and counts from them; the buffer raises setm_mem_intake_bytes. A
/// threaded SetmMiner mine runs one one-shard intake per range of SALES,
/// each on its own thread, and concatenates their slices when the ranges'
/// trans_ids ascend (low_tid, high_tid); an intake is used by one thread.
class SalesIntake {
 public:
  /// R_1 is in memory or in `ctx`'s pool as `run.storage` says, and C_1 is
  /// counted as `run.count_method` says. `items`, when given, are the only
  /// items kept; ItemRanks' lookup takes memory in proportion to the
  /// items, not to their range.
  SalesIntake(ExecContext ctx, const ShardRunOptions& run, size_t num_shards,
              uint64_t expected_rows, TransactionId max_tid = INT32_MAX,
              std::optional<ItemRanks> items = std::nullopt);

  /// Reads one SALES row.
  void Add(TransactionId tid, ItemId item) {
    ++sales_rows_;
    if (tid > max_tid_) return;
    if (items_.has_value() && items_->RankOf(item) == ItemRanks::kAbsent) {
      return;
    }
    ++kept_rows_;
    Keep(tid, item);
  }

  /// Writes the last group and seals every shard: the slices in trans_id
  /// order, at least one. The first error of any R_1 append or count.
  /// Call once.
  Result<std::vector<ShardSlice>> Finish();

  /// Rows read and rows kept.
  uint64_t sales_rows() const { return sales_rows_; }
  uint64_t kept_rows() const { return kept_rows_; }
  /// The smallest and largest kept trans_id; valid once a row is kept.
  TransactionId low_tid() const { return low_tid_; }
  TransactionId high_tid() const { return high_tid_; }
  /// Whether a kept (trans_id, item) row repeated. Valid after Finish().
  bool repeated_rows() const { return repeated_rows_; }

 private:
  /// A kept row: continues the open group, or Begin()s another.
  void Keep(TransactionId tid, ItemId item) {
    if (tid == tid_ && !group_.empty()) {
      group_.push_back(item);
    } else {
      Begin(tid, item);
    }
  }
  /// A kept row that does not continue the open group: starts the next
  /// transaction, in the next shard once the current one holds its share,
  /// descends, or is buffered after a descent.
  void Begin(TransactionId tid, ItemId item);
  /// Opens the next shard: its R_1 and C_1's count.
  void OpenShard();
  /// Appends the open group to the current shard and empties it.
  void WriteGroup();
  /// The first descent: moves every row written so far into the buffer.
  void Descend();

  ExecContext ctx_;
  ShardRunOptions run_;
  size_t num_shards_;
  uint64_t share_;  ///< rows a shard holds before the next one opens
  TransactionId max_tid_;
  std::optional<ItemRanks> items_;
  uint64_t sales_rows_ = 0;
  uint64_t kept_rows_ = 0;
  TransactionId low_tid_ = INT32_MAX;
  TransactionId high_tid_ = INT32_MIN;
  bool repeated_rows_ = false;

  std::vector<ShardSlice> shards_;
  uint64_t shard_rows_ = 0;  ///< rows in shards_.back()
  TransactionId tid_ = 0;    ///< the open group's transaction
  std::vector<ItemId> group_;
  bool descended_ = false;
  std::vector<std::pair<TransactionId, ItemId>> buffered_;
  Status status_;  ///< the first failed append or count
};

/// Reads the rows [begin, end) of `sales`, a relation of two INT32
/// columns, every row by default, into `intake` in one typed scan
/// (Table::ScanInt32Pairs): no Tuple or Value per row. InvalidArgument,
/// naming the column and its type, for a table of another shape;
/// Corruption for a malformed record.
Status ExtractRows(const Table& sales, SalesIntake* intake,
                   uint64_t begin = 0, uint64_t end = UINT64_MAX);

/// The in-process shard and the only place Algorithm SETM iterates: runs
/// the pipeline bodies of core/setm_pipeline over one shard's R_1 and
/// reports its local counts. Every SetmMiner mine — serial (one backend)
/// or threaded (one per thread) — runs here under DistributedMine, and so
/// does the server-side implementation of LCOUNT/MERGE, so local, threaded,
/// serial and remote mines cannot drift apart.
///
/// Each iteration makes one pass over its inputs, the one that writes its
/// R_k, and that pass also counts the next iteration's R'_{k+1}, so R'_k
/// is never stored and no join runs twice. Counts and probes work in
/// candidate-id space (core/setm_pipeline.h):
///   - CountFirstIteration reports the slice's R_1, which the intake wrote,
///     and finishes C_1's count, which the intake took as it wrote R_1.
///   - ApplyGlobalCk(k) checks the global C_k's (parent id, item) keys and
///     gives them dense ids in itemset order (IndexCandidates), then runs
///     FilterByCk: the merge-scan join of R_{k-1} with R_1, each R_{k-1}
///     row's C_{k-1} id read from the row itself (an R_1 row's item ranked
///     in C_1 for k = 2), C_k membership by looking that itemset's
///     children up in the transaction's table by C_1 rank, R_k appended a
///     transaction at a time as its group of C_k ids in join order
///     (already its sorted order), and each kept row's extensions counted
///     by (C_k id, C_1 rank) into the ExtensionCount of R'_{k+1}, finished
///     before it returns. Under the slice's anti_monotone a kept row's
///     extensions are only its kept siblings above it, the only ones that
///     can reach minsupport when counts are supports and C_k holds every
///     frequent k-itemset; every other run (a lattice count, a bound
///     table, SALES with a repeated row) counts each C_1 item above the
///     row's last one.
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
/// The slice is one ShardSlice, an R_1 and its C_1 count, held for one
/// run: SetmMiner's intakes, on the mine's workers, write every in-process
/// shard's and hand it over (SetSlice) before BeginRun, and a backend
/// bound to a catalog table
/// (BindTable: the server and file-shard members) runs the same intake,
/// as one shard, over that table at every BeginRun, so a long-lived
/// backend sees rows appended between runs.
///
/// R_1, (trans_id, item), and R_k (k >= 2), (trans_id, C_k id), are
/// GroupedRelations that never enter the catalog: one group per
/// transaction, its trans_id once and its ids as varint deltas, on page
/// images in memory under kMemory and unlogged pages under kHeap. A
/// reply's r_bytes is the paper's |R_k|·(k+1)·4 bytes, and its r_pages the
/// relation's pages (num_pages()). The backend holds at most R_1, R_{k-1}
/// and the R_k being written: the intake creates R_1 with
/// PageHint::kRetain, so its pages keep their frames in the pool's
/// retained share; pass k >= 3 reads R_{k-1} with
/// GroupedRelation::LastScan, releasing it page by page; EndRun releases
/// the rest. A pass that fails ends the run; a malformed C_k is refused
/// before anything changes. No row or key passes through Tuple/Value.
class LocalShardBackend : public ShardBackend {
 public:
  /// `db` is borrowed and must outlive the backend.
  LocalShardBackend(Database* db, std::string name);

  /// Hands over the next run's slice, written by a SalesIntake. Call
  /// between runs; the run that takes it ends with it.
  void SetSlice(ShardSlice slice) { slice_ = std::move(slice); }

  /// Binds the slice to a catalog table, read at every BeginRun.
  void BindTable(std::string table_name) {
    table_name_ = std::move(table_name);
  }

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
  std::string table_name_;  ///< the bound table; empty: SetSlice
  bool running_ = false;

  ShardRunOptions run_;
  int64_t count_floor_ = 1;  ///< local counts below it are dropped

  /// The run's R_1 (filtered when asked) and, until CountFirstIteration,
  /// its C_1 count.
  ShardSlice slice_;
  std::unique_ptr<GroupedRelation> r_prev_;  ///< R_{k-1}; null: use R_1
  /// The k the next ApplyGlobalCk must carry; 0 before CountFirstIteration.
  size_t next_k_ = 0;
  /// The last C_k applied, with its ids: the next pass's C_{k-1}.
  CandidateLevel level_;
};

}  // namespace setm::shard

#endif  // SETM_SHARD_LOCAL_BACKEND_H_
