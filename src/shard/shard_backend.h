#ifndef SETM_SHARD_SHARD_BACKEND_H_
#define SETM_SHARD_SHARD_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/miner.h"
#include "core/types.h"

namespace setm::shard {

/// Physical knobs of one distributed run, forwarded to every shard.
struct ShardRunOptions {
  TableBacking storage = TableBacking::kMemory;
  CountMethod count_method = CountMethod::kSortMerge;
  bool filter_r1 = false;
  /// The run's longest pattern (0: no limit), so that a shard's last pass
  /// does not count a level the coordinator never asks for.
  size_t max_pattern_length = 0;
};

/// What one shard reports from one call of the iteration protocol: the
/// relation the call wrote and its local counts of the level that the
/// coordinator merges next. Support is a property of the whole database,
/// so local counts use min_count = 1 unless the coordinator set a count
/// floor (ShardBackend::SetCountFloor).
struct ShardReply {
  /// Transactions in this shard's R_1 (CountFirstIteration only;
  /// the coordinator sums them to resolve the global minsupport).
  uint64_t transactions = 0;
  /// The relation the call wrote: R_1 for CountFirstIteration and
  /// ApplyGlobalCk(1), R_k for ApplyGlobalCk(k). Its bytes are the paper's,
  /// (k+1)·4 a row; its pages are the engine's, as stored.
  uint64_t r_rows = 0;
  uint64_t r_bytes = 0;
  uint64_t r_pages = 0;
  /// Rows counted into `counts`: |R_1| for CountFirstIteration, |R'_{k+1}|
  /// for ApplyGlobalCk(k).
  uint64_t r_prime_rows = 0;
  /// Local counts as (parent id, item, count) rows in strictly ascending
  /// key order (CandidateKey), one key per itemset this shard saw whose
  /// count reached the floor, and at most `r_prime_rows` in all: for
  /// CountFirstIteration, C_1's items extending the empty itemset, id 0;
  /// for ApplyGlobalCk(k), (k+1)-itemsets extending a C_k id of that call.
  /// A count above INT32_MAX takes consecutive rows of its key, as in the
  /// count's spilled runs (AppendEntry).
  std::vector<int32_t> counts;
};

/// Per-shard health/occupancy, the dinomo-style membership view surfaced by
/// ShardedDatabase::Health and setm_shardctl stats.
struct ShardHealth {
  bool reachable = false;
  uint64_t transactions = 0;
  uint64_t sales_rows = 0;
  uint64_t sales_bytes = 0;
};

/// One shard's half of the distributed count. The coordinator drives every
/// backend through the same iteration protocol, one call per iteration:
///
///   BeginRun(options)
///   CountFirstIteration()    -> local R_1's size + item counts + |D_shard|
///   [SetCountFloor(minsup)]  -> only when this is the sole shard
///   for k = 1, 2, ...:
///     ApplyGlobalCk(k, C_k)  -> local R_k from the global C_k, and the
///                               local counts of R'_{k+1}
///   EndRun()
///
/// Each ApplyGlobalCk is the iteration's one pass: the join of R_{k-1}
/// with R_1, the C_k filter and the R_k append, counting R'_{k+1} as it
/// goes. ApplyGlobalCk(1) reads R_1 and returns the counts of R'_2, the
/// pairs of C_1 items in each transaction; it rewrites R_1 only under
/// filter_r1, and |R'_2| counts the pairs of the R_1 that pass 2 joins,
/// items outside C_1 included when R_1 is kept whole.
///
/// Implementations: LocalShardBackend runs the SETM pipeline bodies in
/// process over its shard's R_1; RemoteShardBackend speaks LCOUNT/MERGE to a
/// setm_served instance. Both produce identical numbers by construction —
/// the server's handler *is* a LocalShardBackend.
///
/// Backends are single-threaded (one coordinator call at a time) but
/// distinct backends run concurrently on the coordinator's fan-out pool.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Shard name for error messages and metrics ("s0", "file:/a/b.db", ...).
  virtual const std::string& name() const = 0;

  /// Starts a fresh run; any previous run's state is released.
  virtual Status BeginRun(const ShardRunOptions& options) = 0;

  /// Iteration 1's count: reports the local R_1, written from the shard's
  /// SALES in BeginRun or before it (shard::SalesIntake), and its items'
  /// counts, taken as R_1 was written; no row of SALES or R_1 is read
  /// again for it.
  virtual Result<ShardReply> CountFirstIteration() = 0;

  /// Lets this run's later counts drop candidates counted below `floor`.
  /// The coordinator sets it to the global minsupport, once resolved after
  /// iteration 1, when this is the run's only shard: a sole shard's local
  /// counts are the global counts. The merge still applies minsupport, so
  /// the floor is a pruning bound only and a backend may ignore it (the
  /// default). BeginRun resets it to 1.
  virtual void SetCountFloor(int64_t floor) { (void)floor; }

  /// The one pass of iteration k: keeps the local rows whose pattern
  /// survived the global minsupport filter (`ck` lists the surviving
  /// itemsets' keys) as R_k and returns R_k's size with the local counts
  /// of R'_{k+1}. For k == 1 R_1 is filtered only under filter_r1. `ck` is
  /// C_k as the coordinator's merge emits it: (parent id, item) keys,
  /// strictly ascending, each parent an id of the C_{k-1} of the previous
  /// call (0, the empty itemset, for k == 1) and each item in C_1 and
  /// above its parent's last item (IndexCandidates). A shard gives C_k ids
  /// by position and trusts them, so anything else is InvalidArgument
  /// naming the shard, before the pass changes any state.
  virtual Result<ShardReply> ApplyGlobalCk(
      size_t k, const std::vector<CandidateKey>& ck) = 0;

  /// Releases run state (scratch relations, remote session). Idempotent.
  virtual Status EndRun() = 0;

  /// Liveness + occupancy probe, independent of any run.
  virtual Result<ShardHealth> Health() = 0;
};

}  // namespace setm::shard

#endif  // SETM_SHARD_SHARD_BACKEND_H_
