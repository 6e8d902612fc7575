#ifndef SETM_CORE_MINING_PLANNER_H_
#define SETM_CORE_MINING_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/miner.h"
#include "incremental/itemset_store.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace setm {

/// How a mining request will be answered.
enum class PlanStrategy {
  /// A stored run dominates the query (same source, fresh, stored threshold
  /// <= requested, pattern cap compatible): filter the stored level
  /// relations by the requested threshold. Zero mining iterations.
  kCacheFilter,
  /// The store is stale (an appended batch and/or rows beyond the stored
  /// watermark) but close enough: derive the combined answer with the FUP
  /// derivation (incremental/delta_miner.h) and refresh the store.
  kDeltaDerive,
  /// Mine from scratch through the MinerRegistry, writing the result back
  /// into the store when there is one.
  kFullMine,
};

/// Registry name for display ("cache-filter", "delta-derive", "full-mine").
const char* PlanStrategyName(PlanStrategy strategy);

/// Counters of planner decisions — the cache's hit/miss ledger, reported
/// next to IoStats wherever mining statistics are printed. A "hit" is any
/// plan that avoided full mining (cache_filters + delta_derives); a "miss"
/// is a full_mines increment.
struct PlanStats {
  uint64_t plans = 0;          ///< mining requests planned
  uint64_t cache_filters = 0;  ///< answered by filtering stored levels
  uint64_t delta_derives = 0;  ///< answered through incremental derivation
  uint64_t full_mines = 0;     ///< answered by mining from scratch
  uint64_t write_backs = 0;    ///< store refreshes (Save) after answering
  uint64_t invalidations = 0;  ///< stored runs found unusable for the query

  /// One-line rendering, e.g.
  /// "plans=4 cache_filters=2 delta_derives=1 full_mines=1 write_backs=2
  ///  invalidations=0".
  std::string ToString() const;
};

/// Knobs of the plan layer — what the CLI's --store/--append/--incremental/
/// --fallback flags configure.
struct PlannerOptions {
  /// ItemsetStore prefix the cache lives under; "" disables caching and
  /// write-back entirely (every plan is kFullMine). With a prefix, every
  /// mine or derivation over a table source is written back.
  std::string store_prefix;
  /// Backing for store relations created by write-back.
  TableBacking store_backing = TableBacking::kMemory;
  /// Registry algorithm used by kFullMine ("setm", "apriori", ...). The
  /// cache itself requires exact supports, which every registered algorithm
  /// produces, so any of them may fill it.
  std::string algorithm = "setm";
  /// Physical knobs handed to the registry miner and the delta mine.
  SetmOptions setm;
  /// Staleness budget: a delta larger than this fraction of the combined
  /// transaction count is answered by kFullMine instead of kDeltaDerive.
  /// 0 disables derivation (every stale store forces a full mine).
  double full_remine_fraction = 0.25;
};

/// One mining request as the planner sees it. Exactly one of `table` /
/// `transactions` must be set; `append` (optional, table sources only) is a
/// batch of new transactions to add to the table before answering.
struct PlanRequest {
  /// Catalog-resident source relation (trans_id INT32, item INT32).
  /// Non-const because append-carrying plans insert into it.
  Table* table = nullptr;
  /// In-memory source; caching is disabled for it (no relation to key on).
  const TransactionDb* transactions = nullptr;
  /// Batch to append. Ids must be unique and above the stored watermark.
  /// Transactions a crash-interrupted append already left in the table
  /// beyond the watermark must all be re-submitted; they are skipped on
  /// insert.
  const TransactionDb* append = nullptr;
  /// The logical question: thresholds, pattern cap, observer.
  MiningOptions options;
  /// Optional trace root (not owned; must outlive Execute). Execute hangs
  /// a "plan" child and one execution child ("load" / "derive" / "mine",
  /// the last two with per-iteration spans, "derive" also with its "old
  /// partition" count) off it and tags the root with the chosen strategy.
  /// The caller Ends and renders the root.
  obs::TraceSpan* trace = nullptr;
};

/// An inspectable plan: the strategy, why it was chosen, and everything the
/// executor needs to run it. Obtained from MiningPlanner::Plan (pure
/// inspection, e.g. the CLI's --explain) or implicitly via Execute.
struct MiningPlan {
  PlanStrategy strategy = PlanStrategy::kFullMine;
  /// Human-readable justification ("stored run at support 4 dominates the
  /// query at support 7", "batch is 40% of the combined database, above the
  /// 25% derivation budget", ...).
  std::string reason;
  /// The support threshold, in transactions, the answer is filtered at —
  /// resolved against the stored run's transaction count for kCacheFilter,
  /// against the estimated combined count otherwise.
  int64_t resolved_min_support_count = 0;
  /// Whether Execute will write the result back into the store.
  bool save_after_mine = false;
  /// True when a stored run was found under the prefix (meta below valid).
  bool store_found = false;
  StoredRunMeta stored;
  /// The delta the plan operates on: the append batch for kDeltaDerive and
  /// batch-carrying kFullMine plans; crash-orphaned transactions beyond the
  /// stored watermark when the table grew without a batch.
  TransactionDb delta;
  /// Transaction ids already present in the table beyond the stored
  /// watermark (crash-interrupted appends); Execute skips them on insert.
  std::vector<TransactionId> orphans;
  /// The high-water mark a write-back will record: the stored watermark
  /// (or the table's highest trans_id when no run is stored) combined with
  /// every delta id.
  TransactionId new_watermark = 0;

  /// Multi-line rendering for --explain.
  std::string Explain() const;
};

/// What Execute reports beyond the mining result.
struct PlanExecution {
  MiningPlan plan;
  MiningResult result;
  /// Non-empty transactions in the plan's delta.
  uint64_t delta_transactions = 0;
  /// kDeltaDerive only: itemsets re-counted against the old partition.
  uint64_t borderline_candidates = 0;
};

/// The plan layer: turns a mining request into an explicit MiningPlan and
/// runs it. Every mining entry point (CLI, benches, the future server)
/// routes here instead of calling Miner::Mine directly, so repeated queries
/// are answered from stored relations, near-stale stores are derived
/// incrementally, and only cold queries pay for a full mine.
///
///     MiningPlanner planner(&db, {.store_prefix = "fi",
///                                 .store_backing = TableBacking::kHeap});
///     PlanRequest request;
///     request.table = sales;
///     request.options.min_support_count = 3;
///     auto exec = planner.Execute(request).value();   // plan + run
///     // planner.stats() now records the hit/miss/derive counters.
class MiningPlanner {
 public:
  MiningPlanner(Database* db, PlannerOptions options = {});

  /// Decides how the request would be answered, without mining or mutating
  /// anything (at most one scan of the table tail when the store looks
  /// stale). Counts into stats().plans but not into the strategy counters —
  /// only executed plans do.
  Result<MiningPlan> Plan(const PlanRequest& request);

  /// Plans and runs the request. Results are bit-identical across the three
  /// strategies; InvalidArgument for malformed requests (no source, both
  /// sources, append on an in-memory source, batch ids at or below the
  /// stored watermark or duplicated, a crash-interrupted append the batch
  /// does not re-submit).
  ///
  /// Ordering contract for append-carrying plans. kDeltaDerive computes the
  /// whole answer before the table is touched, then appends the batch and
  /// commits it as one batch, and only then saves the store; kFullMine
  /// appends and commits first, then mines. A crash after the commit but
  /// before the save leaves the batch's rows beyond the stored watermark,
  /// and re-submitting the same batch completes it.
  Result<PlanExecution> Execute(const PlanRequest& request);

  const PlanStats& stats() const { return stats_; }
  /// The store the cache lives in, or null when store_prefix is empty.
  ItemsetStore* store() { return store_.get(); }
  const PlannerOptions& options() const { return options_; }

 private:
  Status ValidateRequest(const PlanRequest& request) const;

  /// Each runs `out->plan` and fills `out->result`.
  Status ExecuteCacheFilter(const PlanRequest& request, PlanExecution* out);
  Status ExecuteDeltaDerive(const PlanRequest& request, PlanExecution* out);
  Status ExecuteFullMine(const PlanRequest& request, PlanExecution* out);
  /// Inserts the plan's delta into the request table, skipping the orphan
  /// ids already there, then commits once.
  Status AppendDelta(const PlanRequest& request, const MiningPlan& plan);
  /// Writes `itemsets` back into the store as the run over the request
  /// table up to the plan's new watermark.
  Status SaveRun(const PlanRequest& request, const MiningPlan& plan,
                 const FrequentItemsets& itemsets);

  Database* db_;
  PlannerOptions options_;
  std::unique_ptr<ItemsetStore> store_;
  PlanStats stats_;
};

}  // namespace setm

#endif  // SETM_CORE_MINING_PLANNER_H_
