#ifndef SETM_SHARD_COORDINATOR_H_
#define SETM_SHARD_COORDINATOR_H_

#include <vector>

#include "core/types.h"
#include "shard/shard_backend.h"

namespace setm {
class WorkerPool;
namespace obs {
class TraceSpan;
}
}  // namespace setm

namespace setm::shard {

/// Knobs of one distributed run that are the coordinator's, not the query's.
struct CoordinatorOptions {
  /// Physical knobs forwarded to every shard (filter_r1 and
  /// max_pattern_length are taken from the MiningOptions).
  ShardRunOptions run;
  /// Fan-out pool for the per-shard calls; null runs them serially on the
  /// calling thread. The pool is only ever entered from the coordinator —
  /// backends never re-enter it.
  WorkerPool* pool = nullptr;
  /// Optional parent span: the coordinator attaches one completed child per
  /// iteration with nested per-shard spans. Must belong to the calling
  /// thread (TraceSpan is single-writer).
  obs::TraceSpan* trace = nullptr;
  /// Optional lattice: counts its itemsets instead of mining. A merged key
  /// survives iff its itemset is in the lattice, whatever its count (the
  /// minsupport is 1), so the result holds exactly the members the shards'
  /// data holds, with their counts. The lattice must hold every member's
  /// prefix (the member without its last item) and each of its items, as
  /// a downward-closed set or any SETM result does.
  const FrequentItemsets* lattice = nullptr;
};

/// The distributed count over `shards` (Section 5's partitioned reading of
/// Algorithm SETM, stretched across databases), in the shape of Count
/// Distribution: local counts are exchanged once per pass.
///
///   count    every shard reports its R_1, which its intake wrote, and the
///            counts of its items, taken as R_1 was written, with
///            min_count = 1 (a sole shard, whose counts are global, prunes
///            at minsupport from k = 2 on);
///   merge    the coordinator sums the shards' counts, sorted on their
///            (C_{k-1} id, item) keys, in one k-way merge and applies the
///            global minsupport — resolved from the summed per-shard
///            transaction counts, exact because transactions never span
///            shards — or, given a lattice, keeps its members;
///   pass     the surviving C_k's keys are broadcast, and in one call every
///            shard filters its slice of the join down to R_k and returns
///            its local counts of R'_{k+1}, which the next merge sums.
///            Only the merge spells itemsets out, for the result.
///
/// This is the one SETM iteration loop: SetmMiner runs every mine through
/// it (one in-process shard when serial, one per thread when threaded).
/// Results are identical for any shard count: the shards run the same
/// pipeline bodies, the merge applies the same threshold, and the final
/// Normalize() makes merge order irrelevant.
///
/// Failure semantics: one shard failing fails the whole run — partial
/// results are never returned. Connection-level errors (IOError,
/// Unavailable) surface as Status::Unavailable naming the shard; other
/// codes keep their code with the shard name prefixed; Cancelled (from
/// options.observer) passes through untouched. Every exit path ends the
/// run on all shards best-effort.
Result<MiningResult> DistributedMine(const std::vector<ShardBackend*>& shards,
                                     const MiningOptions& options,
                                     const CoordinatorOptions& coord = {});

}  // namespace setm::shard

#endif  // SETM_SHARD_COORDINATOR_H_
