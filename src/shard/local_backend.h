#ifndef SETM_SHARD_LOCAL_BACKEND_H_
#define SETM_SHARD_LOCAL_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "core/setm.h"
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

/// Appends the (trans_id, item) pairs of a SALES-shaped table to `rows`;
/// InvalidArgument unless the table has exactly two columns.
Status ExtractRows(const Table& sales, std::vector<ShardRow>* rows);

/// The in-process shard and the only place Algorithm SETM iterates: runs
/// the pipeline bodies of core/setm_pipeline over one SALES slice and
/// reports its local counts. Every SetmMiner mine — serial (one backend)
/// or threaded (one per thread) — runs here under DistributedMine, and so
/// does the server-side implementation of LCOUNT/MERGE, so local, threaded,
/// serial and remote mines cannot drift apart.
///
/// Each iteration k >= 2 runs the merge-scan join of R_{k-1} with R_1
/// twice, so R'_k is never stored. CountIteration(k), the count pass, feeds
/// JoinRkPrime's rows straight into a BudgetedCount, whose budget is the
/// sort budget under kSortMerge and unbounded under kHash. ApplyGlobalCk(k),
/// the filter pass, is FilterByCk: the join again, the C_k probe, and R_k
/// appended in join order, already its (trans_id, items) order.
/// ApplyGlobalCk(k) is accepted once per CountIteration(k); anything else
/// is InvalidArgument.
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
/// R_1 and R_k are fixed-width int32 relations (IntRelation) that never
/// enter the catalog: flat arrays under kMemory, heap chains of unlogged
/// pages under kHeap. Local counts, the C_k probe and (in the
/// coordinator) the merge of partial counts use packed itemset keys
/// (ItemsetCounts), so no row or key passes through Tuple/Value.
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
  Result<ShardLocalCounts> CountIteration(size_t k) override;
  Result<ShardFilterStats> ApplyGlobalCk(
      size_t k, const std::vector<std::vector<ItemId>>& ck) override;
  Status EndRun() override;
  Result<ShardHealth> Health() override;

 private:
  Database* db_;
  std::string name_;
  std::string table_name_;
  bool bound_to_table_ = false;
  bool running_ = false;

  std::vector<ShardRow> rows_;      ///< sorted slice when SetRows-sourced
  std::vector<ShardRow> run_rows_;  ///< BindTable run's slice, freed by k=1
  ShardRunOptions run_;
  int64_t count_floor_ = 1;         ///< local counts below it are dropped

  std::unique_ptr<IntRelation> r1_;      ///< R_1 slice (filtered when asked)
  std::unique_ptr<IntRelation> r_prev_;  ///< R_{k-1}; null means use r1
  size_t counted_k_ = 0;  ///< k counted and awaiting ApplyGlobalCk; 0: none
};

}  // namespace setm::shard

#endif  // SETM_SHARD_LOCAL_BACKEND_H_
