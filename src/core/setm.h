#ifndef SETM_CORE_SETM_H_
#define SETM_CORE_SETM_H_

#include <cstdint>
#include <memory>

#include "core/miner.h"
#include "core/types.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace setm {

// CountMethod and SetmOptions — the physical knobs of a SETM run, now the
// uniform knob set of the whole mining API — live in core/miner.h and are
// re-exported here for the many existing call sites.

/// Algorithm SETM (Figure 4 of the paper), implemented directly on the
/// engine's two primitives: external sort and merge-scan join.
///
/// Every mine runs under the shard coordinator (shard::DistributedMine).
/// SALES is read by shard::SalesIntake, which writes it as R_1, cut on
/// trans_id into at most SetmOptions::num_threads shards, and counts C_1
/// in the same pass; R_1 is the only copy of SALES the mine holds. A
/// threaded mine of a TransactionDb or a MemTable reads SALES on the
/// workers: it cuts the source into num_threads contiguous ranges, each
/// cut moved past the rows (transactions) that continue the trans_id
/// before it, and one intake per range writes one shard. It keeps those
/// shards, the empty ones dropped, when each range's largest trans_id is
/// below the next range's smallest; otherwise it reads SALES again as one
/// intake, which cuts the shards as it reads and sorts SALES that
/// descends. Heap SALES is read as one range. One in-process
/// shard::LocalShardBackend per shard runs the iterations, and a serial
/// mine is simply the one-shard run, on the calling thread. The iteration
/// below therefore lives once, in the backend and the coordinator.
///
/// The workers are the database's pool, or one of num_threads - 1
/// threads owned by the mine: the thread that waits on a fan-out runs its
/// share of the tasks (TaskGroup::Wait).
///
/// Per iteration k:
///   1. R'_k := merge-scan join of R_{k-1} (sorted on trans_id, items) with
///      R_1 (sorted on trans_id, item) on trans_id, keeping extensions with
///      q.item > p.item_{k-1} — lexicographic candidate patterns. R'_k is
///      a stream in (trans_id, items) order, never a stored relation;
///   2. the count: R'_k's itemsets are grouped and counted within the sort
///      budget, keeping those with count >= minsupport: the count
///      relation C_k;
///   3. the filter: R_k := the rows of R'_k whose pattern is in C_k
///      ("simple table look-ups on relation C_k"), written in join order,
///      which already is (trans_id, items) order. Figure 4 instead stores
///      R'_k and sorts R_k back on trans_id, since its count sort reorders
///      R'_k in place.
/// Steps 1 and 3 of iteration k and step 2 of iteration k+1 are one pass:
/// the join that writes R_k also counts each kept row's extensions, the
/// rows of R'_{k+1}. Iteration 1 is the intake's: R_1 written as SALES is
/// read, and C_1 counted as R_1 is written; its pass, once C_1 is known,
/// reads R_1 and counts R'_2 over C_1's items (rewriting R_1 without the
/// other items under filter_r1). So each iteration reads
/// R_{k-1} and R_1 once. The look-ups and the count use C_k's ids in
/// itemset order rather than its itemsets (see core/setm_pipeline.h).
/// The loop ends when R_k (equivalently C_k) is empty.
///
///     Database db;
///     SetmMiner miner(&db);
///     MiningResult result = miner.Mine(transactions, options).value();
class SetmMiner {
 public:
  /// With a `lattice`, the miner counts its itemsets instead of mining
  /// (shard::CoordinatorOptions::lattice): a result holds each member the
  /// data holds, with its count whatever its support, and nothing else,
  /// and only the rows of the lattice's items are read into R_1. With a
  /// `trace`, every iteration is a child span of it. Both are borrowed.
  explicit SetmMiner(Database* db, SetmOptions setm_options = {},
                     const FrequentItemsets* lattice = nullptr,
                     obs::TraceSpan* trace = nullptr)
      : db_(db), setm_options_(setm_options), lattice_(lattice),
        trace_(trace) {}

  /// Mines a transaction database (items within a transaction must be
  /// sorted and unique); its rows are written straight into the shards'
  /// R_1s (shard::SalesIntake), threaded on ranges of transactions, and
  /// buffered and sorted once only when a transaction's id is below the
  /// one before it.
  Result<MiningResult> Mine(const TransactionDb& transactions,
                            const MiningOptions& options);

  /// Mines an existing relation with schema (trans_id INT32, item INT32),
  /// its rows with trans_id <= `max_tid`, read in typed scans
  /// (shard::ExtractRows), one a row range of a MemTable, into the shards'
  /// R_1s. Rows need not be sorted: a transaction's items are sorted as its
  /// group is written, and rows are buffered and sorted once only when a
  /// trans_id arrives below the one before it. Another schema is
  /// InvalidArgument. The result's I/O ledger includes the SALES scan, and
  /// the trace its sales_rows and kept_rows. Shards are cut from
  /// `max_tid_rows`, the rows at or below `max_tid` (0: every row of
  /// `sales`); the last range reads on through the rows past them.
  Result<MiningResult> MineTable(const Table& sales,
                                 const MiningOptions& options,
                                 TransactionId max_tid = INT32_MAX,
                                 uint64_t max_tid_rows = 0);

  /// The canonical SALES schema: (trans_id INT32, item INT32).
  static Schema SalesSchema();

 private:
  Database* db_;
  SetmOptions setm_options_;
  const FrequentItemsets* lattice_;
  obs::TraceSpan* trace_;
};

/// Creates a catalog table `name` with the SALES schema and loads the
/// transaction database into it. Convenience shared by the SQL mining path,
/// the examples and the benchmarks.
Result<Table*> LoadSalesTable(Database* db, const std::string& name,
                              const TransactionDb& transactions,
                              TableBacking backing);

}  // namespace setm

#endif  // SETM_CORE_SETM_H_
