#ifndef SETM_CORE_SETM_PIPELINE_H_
#define SETM_CORE_SETM_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/setm.h"
#include "exec/exec_context.h"

namespace setm {

// The join/count/filter bodies of Algorithm SETM. Their one iteration
// driver is shard::LocalShardBackend under shard::DistributedMine: every
// SetmMiner mine (serial as one shard, threaded as N), every sharded
// database and every remote LCOUNT/MERGE session runs them there. The
// residual predicate, the column indices, the projection, the
// (trans_id, items) sort order and the scratch-relation factory exist
// once, here.

/// Creates a standalone scratch relation (never entered in the catalog):
/// a MemTable under kMemory, otherwise a HeapTable in `db`'s buffer pool
/// whose pages are tagged unlogged, since scratch never outlives the run
/// and so never needs the write-ahead log.
Result<std::unique_ptr<Table>> NewScratchRelation(Database* db,
                                                  TableBacking backing,
                                                  const std::string& name,
                                                  Schema schema);

/// Receives the item vector of each candidate row the R'_k join produces.
/// Pass an empty function when the caller counts some other way.
using CountSink = std::function<void(const std::vector<ItemId>& items)>;

/// The itemsets of a C_k, as ItemsetKey-serialized item vectors.
using CkKeys = std::unordered_set<std::string>;

/// R'_k := merge-scan join of `left` (R_{k-1}, sorted on trans_id, items)
/// with `r1` (R_1) on trans_id, keeping extensions with q.item >
/// p.item_{k-1}, projected to (trans_id, item_1..item_k) and materialized
/// into `rk_prime`. When `sink` is set it sees each produced row's items —
/// how a shard aggregates hash counts in the same pass.
Status JoinIntoRkPrime(const Table& left, const Table& r1, size_t k,
                       Table* rk_prime, const CountSink& sink);

/// R_k := rows of `rk_prime` whose items are in `ck` ("simple table
/// look-ups on relation C_k"), sorted back on (trans_id, item_1..item_k)
/// and materialized into `rk`.
Status FilterRkPrimeIntoRk(ExecContext ctx, const Table& rk_prime, size_t k,
                           const CkKeys& ck, Table* rk);

/// The filter_r1 ablation body: copies rows of `r1` whose item is in `c1`
/// into `out` (order preserved, so `out` stays sorted).
Status FilterR1Into(const Table& r1, const CkKeys& c1, Table* out);

/// Sorts `relation` (an R'_k-shaped relation of width k+1) on its item
/// columns and stream-counts the groups, appending them to `out` in item
/// order, keeping groups with count >= `min_count` — the kSortMerge C_k
/// count. A shard passes min_count = 1 (support is a global property, so
/// local counts must all survive to the merge) unless it is the run's only
/// shard, whose local counts are global: then it passes minsupport, as the
/// paper's single pipeline does.
Status CountInto(ExecContext ctx, const Table& relation, size_t k,
                 int64_t min_count, std::vector<PatternCount>* out);

}  // namespace setm

#endif  // SETM_CORE_SETM_PIPELINE_H_
