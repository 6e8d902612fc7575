#ifndef SETM_INCREMENTAL_DELTA_MINER_H_
#define SETM_INCREMENTAL_DELTA_MINER_H_

#include <cstdint>

#include "core/setm.h"
#include "core/types.h"
#include "incremental/itemset_store.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace setm {

/// What one FUP derivation produces.
struct DeltaDerivation {
  /// The combined-database result: itemsets bit-identical to a full remine
  /// of old + delta at the same MiningOptions; `iterations` are the delta
  /// mine's. Timing and I/O are left to the caller.
  MiningResult result;
  /// Itemsets frequent in the delta but absent from the store — the ones
  /// whose global frequency was undecidable from stored supports alone and
  /// had to be re-counted against the old partition.
  uint64_t borderline_candidates = 0;
};

/// Incremental SETM maintenance in the FUP style (Cheung et al.), built on
/// one inequality: an itemset absent from a store mined at threshold s_old
/// had old-partition count <= s_old - 1. With s the threshold for the
/// combined database, such an itemset can only be globally frequent when
/// its delta count is >= s - s_old + 1. So the derivation, counting only
/// through SetmMiner and so the shard coordinator,
///
///   1. mines *only* the delta partition at that reduced threshold, the one
///      count that `options.observer` and the result's iterations see;
///   2. counts the stored itemsets over the delta, which settles their
///      combined supports without touching old data;
///   3. counts only the "borderline" itemsets (delta-frequent, not stored),
///      with their prefixes and items, over the old partition — the rows of
///      `sales` with trans_id <= the stored watermark, read in one scan —
///      skipped when there are none; under `trace`, as its "old partition"
///      child span.
///
/// The result is exact, not approximate: incremental_test sweeps seeds,
/// backings and batch sizes asserting bit-identical itemsets vs remining.
///
/// This is pure derivation: it neither appends `delta` to `sales` nor saves
/// the store, and it checks no ids. The MiningPlanner decides when to call
/// it (stored run compatible with `options`, delta ids above the watermark,
/// batch within the budget) and carries out the append and the write-back.
Result<DeltaDerivation> DeriveWithDelta(Database* db,
                                        const StoredResult& stored,
                                        const TransactionDb& delta,
                                        const Table& sales,
                                        const SetmOptions& setm,
                                        const MiningOptions& options,
                                        obs::TraceSpan* trace = nullptr);

}  // namespace setm

#endif  // SETM_INCREMENTAL_DELTA_MINER_H_
