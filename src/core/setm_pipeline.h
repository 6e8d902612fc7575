#ifndef SETM_CORE_SETM_PIPELINE_H_
#define SETM_CORE_SETM_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/setm.h"
#include "exec/exec_context.h"

namespace setm {

// The join/filter bodies of Algorithm SETM, shared verbatim by the serial
// executor (setm.cc) and the shard backend (shard/local_backend.cc), which
// is the one partitioned executor: threaded, sharded and remote mines all
// run it under the shard coordinator. Each helper is parameterized by a
// sink or membership probe, which is the only thing the two legitimately
// differ in: the serial pipeline aggregates into one global C_k, a shard
// aggregates local counts that merge later. Everything else — the residual
// predicate, the column indices, the projection, the (trans_id, items) sort
// order, the scratch-relation factory — exists once, so the executors
// cannot drift apart by construction.

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

/// Membership probe over C_k (keys are ItemsetKey-serialized item vectors).
using CkProbe = std::function<bool(const std::string& key)>;

/// Receives one counted group: its items and the group's count.
using GroupSink = std::function<void(std::vector<ItemId> items,
                                     int64_t count)>;

/// R'_k := merge-scan join of `left` (R_{k-1}, sorted on trans_id, items)
/// with `r1` (R_1) on trans_id, keeping extensions with q.item >
/// p.item_{k-1}, projected to (trans_id, item_1..item_k) and materialized
/// into `rk_prime`. When `sink` is set it sees each produced row's items —
/// how a shard aggregates hash counts in the same pass.
Status JoinIntoRkPrime(const Table& left, const Table& r1, size_t k,
                       Table* rk_prime, const CountSink& sink);

/// R_k := rows of `rk_prime` whose item key passes `in_ck` ("simple table
/// look-ups on relation C_k"), sorted back on (trans_id, item_1..item_k)
/// and materialized into `rk`.
Status FilterRkPrimeIntoRk(ExecContext ctx, const Table& rk_prime, size_t k,
                           const CkProbe& in_ck, Table* rk);

/// The filter_r1 ablation body: copies rows of `r1` whose single-item key
/// passes `keep` into `out` (order preserved, so `out` stays sorted).
Status FilterR1Into(const Table& r1, const CkProbe& keep, Table* out);

/// The C_k aggregation pipeline under either physical strategy. Both emit
/// identical rows (group columns + count, ordered by the group columns).
std::unique_ptr<TupleIterator> MakeGroupCount(
    ExecContext ctx, std::unique_ptr<TupleIterator> input,
    std::vector<size_t> group_columns, int64_t min_count, CountMethod method);

/// Streams MakeGroupCount over `relation`'s item columns (an R'_k-shaped
/// relation of width k+1) into `sink`, keeping groups with count >=
/// `min_count`. The serial executor calls it with the global minsupport;
/// a shard calls it with min_count = 1 (support is a global property,
/// so local counts must all survive to the merge) — which is exactly how
/// CountMethod::kSortMerge is honored per shard.
Status CountInto(ExecContext ctx, const Table& relation, size_t k,
                 int64_t min_count, CountMethod method, const GroupSink& sink);

}  // namespace setm

#endif  // SETM_CORE_SETM_PIPELINE_H_
