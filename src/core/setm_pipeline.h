#ifndef SETM_CORE_SETM_PIPELINE_H_
#define SETM_CORE_SETM_PIPELINE_H_

#include <vector>

#include "core/itemset_counts.h"
#include "core/setm.h"
#include "exec/exec_context.h"
#include "relational/int_relation.h"

namespace setm {

// The join/count/filter bodies of Algorithm SETM over fixed-width int32
// rows. They iterate in one place, shard::LocalShardBackend under
// shard::DistributedMine: every SetmMiner mine (serial as one shard,
// threaded as N, and each per-class run of ClassedSetmMiner), every
// sharded database and every remote LCOUNT/MERGE request runs them there. An R_k is an IntRelation of width k+1,
// (trans_id, item_1..item_k), kept sorted on all of its columns; a C_k is
// an ItemsetCounts keyed by the k items. The SQL engine's Tuple/Value path
// (and with it setm-sql, the paper's SQL formulation) is not used here.

/// R'_k := merge-scan join of `left` (R_{k-1}, width k) with `r1` (R_1,
/// width 2) on trans_id, keeping extensions with q.item > p.item_{k-1},
/// projected to (trans_id, item_1..item_k) and appended to `rk_prime`
/// (width k+1). Rows come out in merge-join order — each left row followed
/// by its transaction's qualifying R_1 items, in order — so R'_k is sorted
/// like its inputs. When `counts` is set (a k-item map) it also counts each
/// produced row's items: how kHash aggregates in the same pass.
Status JoinRkPrime(const IntRelation& left, const IntRelation& r1,
                   IntRelation* rk_prime, ItemsetCounts* counts);

/// Sorts `relation` (an R'_k, width k+1) on its item columns and
/// stream-counts the groups, appending them to `out` in item order and
/// keeping groups with count >= `min_count` — the kSortMerge C_k count. A
/// shard passes min_count = 1 (support is a global property, so local
/// counts must all survive to the merge) unless it is the run's only shard,
/// whose local counts are global: then it passes minsupport, as the
/// paper's single pipeline does.
Status CountSorted(ExecContext ctx, const IntRelation& relation,
                   int64_t min_count, std::vector<PatternCount>* out);

/// Appends to `out` the rows of `in` whose items are in `ck` ("simple table
/// look-ups on relation C_k"). An R'_k (k >= 2) is sorted back on
/// (trans_id, item_1..item_k) on the way, as Figure 4 does; R_1 (the
/// filter_r1 ablation) keeps its order, which already is that one.
Status FilterByCk(ExecContext ctx, const IntRelation& in,
                  const ItemsetCounts& ck, IntRelation* out);

}  // namespace setm

#endif  // SETM_CORE_SETM_PIPELINE_H_
