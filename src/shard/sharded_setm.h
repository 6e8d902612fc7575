#ifndef SETM_SHARD_SHARDED_SETM_H_
#define SETM_SHARD_SHARDED_SETM_H_

#include "core/setm.h"
#include "core/types.h"
#include "relational/database.h"

namespace setm::shard {

/// The partitioned SETM executor: SALES is range-partitioned on trans_id
/// into `num_threads` row-balanced shard slices (never splitting a
/// transaction), each slice gets a LocalShardBackend, and DistributedMine
/// drives the two-phase count over them on a worker pool. Splitting on
/// trans_id is exact — the R'_k join matches rows of one transaction only
/// and support counts are plain sums — so the output is identical to the
/// serial SetmMiner for any shard count (asserted by
/// miners_equivalence_test).
///
/// SetmMiner routes every num_threads > 1 mine here, and the registry
/// exposes it directly as "setm-sharded". In-process threading therefore
/// runs the exact coordinator/backend seam the multi-database
/// ShardedDatabase and the remote LCOUNT/MERGE protocol use, so one
/// implementation serves every deployment shape.
///
///     SetmOptions o;
///     o.num_threads = 4;
///     MiningResult r = SetmMiner(&db, o).Mine(transactions, options).value();
class ShardedSetmMiner {
 public:
  /// Uses the database's shared worker pool when it has one, otherwise
  /// spins up a private pool per Mine call (num_threads > 1 only).
  explicit ShardedSetmMiner(Database* db, SetmOptions setm_options = {})
      : db_(db), setm_options_(setm_options) {}

  /// Mines a transaction database (same contract as SetmMiner::Mine).
  Result<MiningResult> Mine(const TransactionDb& transactions,
                            const MiningOptions& options);

  /// Mines an existing relation with schema (trans_id INT32, item INT32).
  Result<MiningResult> MineTable(const Table& sales,
                                 const MiningOptions& options);

 private:
  Database* db_;
  SetmOptions setm_options_;
};

}  // namespace setm::shard

#endif  // SETM_SHARD_SHARDED_SETM_H_
