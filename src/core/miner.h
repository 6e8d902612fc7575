#ifndef SETM_CORE_MINER_H_
#define SETM_CORE_MINER_H_

#include <optional>
#include <string>

#include "core/types.h"
#include "relational/catalog.h"

namespace setm {

/// The memory budget of the C_k count (core/setm_pipeline.h BudgetedCount):
/// one code path that aggregates R'_k rows into an itemset table and, when
/// the table would outgrow its budget, spills its (itemset, count) entries
/// as sorted runs that are merged and summed at the end. Results are
/// identical for both values (`bench/ablation_count_method` sweeps the
/// budget).
enum class CountMethod {
  /// The budget is the sort budget (DatabaseOptions::sort_memory_bytes):
  /// the paper's "sort R'_k on item_1..item_k; C_k := generate counts"
  /// within bounded memory, spilling like an external sort.
  kSortMerge,
  /// No budget: the table grows with the candidates and never spills.
  kHash,
};

/// Physical knobs of a mining run. Historically SETM-specific, now the
/// uniform knob set the MinerRegistry hands every algorithm; miners without
/// a given physical dimension ignore the corresponding knob (MinerInfo in
/// miner_registry.h records which knobs an algorithm honors), except that
/// num_threads > 1 is rejected with InvalidArgument by miners that cannot
/// run partition-parallel — a thread count is an explicit request, never a
/// default.
struct SetmOptions {
  /// Where SALES/R_k relations live. kHeap stores them in paged tables so
  /// every scan, spill and materialization is visible in the IoStats ledger
  /// (the configuration the paper's Section 4.3 analysis describes);
  /// kMemory mirrors the paper's Section 6 implementation, which "ran in
  /// main memory" for the timing experiments.
  TableBacking storage = TableBacking::kMemory;
  /// Memory budget of each shard's local C_k count, which aggregates the
  /// R'_k rows as the join produces them: kSortMerge bounds the count table
  /// by the sort budget and spills sorted (itemset, count) runs beyond it;
  /// kHash lets the table grow and never spills. The coordinator always
  /// sums the shards' sorted count replies in one k-way merge before the
  /// global minsupport filter. Results are identical either way.
  CountMethod count_method = CountMethod::kSortMerge;
  /// Degree of partition parallelism. SETM always runs under the shard
  /// coordinator (shard/coordinator.h): SALES is range-partitioned on
  /// trans_id into this many in-process shards (1 = one shard on the
  /// calling thread), candidate generation and local counting run per
  /// shard on a worker pool, and partial C_k counts merge before the
  /// global minsupport filter. Itemsets, rules and per-iteration relation
  /// sizes are identical for any thread count.
  size_t num_threads = 1;
};

/// The most threads a mine is asked for by name: `setm_mine --threads` and
/// the server's THREADS refuse more when they parse it, before any thread
/// starts.
inline constexpr size_t kMaxThreads = 64;

/// One mining question, bundled: the data source, the logical options
/// (support/confidence thresholds, observer) and optional physical-knob
/// overrides. Exactly one source must be set.
///
///     MiningRequest request;
///     request.transactions = &txns;       // or request.table = sales;
///     request.options.min_support = 0.01;
///     request.options.observer = &progress;   // optional, cancellable
///     auto result = miner->Mine(request);
struct MiningRequest {
  /// In-memory source: a validated transaction database.
  const TransactionDb* transactions = nullptr;
  /// Relational source: a table with schema (trans_id INT32, item INT32).
  /// Rows need not be sorted. Algorithms without a native table pipeline
  /// extract the transactions through one scan (TransactionsFromTable);
  /// setm-sql additionally requires the table to be catalog-resident, since
  /// its statements name it by table name.
  const Table* table = nullptr;
  /// The logical question: thresholds, pattern cap, ablations — plus the
  /// optional per-iteration MiningObserver (options.observer) for progress
  /// callbacks and cooperative cancellation.
  MiningOptions options;
  /// Physical knobs for this run. When unset, the knobs the miner was
  /// created with (MinerRegistry::Create's `knobs` argument) apply.
  std::optional<SetmOptions> physical;
};

/// The polymorphic mining interface: one canonical entry point for every
/// algorithm in the library. Instances are created through MinerRegistry
/// (miner_registry.h) and are single-threaded — one Mine call at a time —
/// but independent instances may run concurrently on separate Databases.
class Miner {
 public:
  virtual ~Miner() = default;

  /// The registry name this miner was created under, e.g. "setm".
  virtual const std::string& name() const = 0;

  /// Runs the algorithm over the request's source. Returns the frequent
  /// itemsets with per-iteration stats and the I/O delta, or:
  ///   InvalidArgument — malformed request (no source / both sources / a
  ///                     physical knob the algorithm cannot honor);
  ///   Cancelled       — the request's observer vetoed continuing.
  virtual Result<MiningResult> Mine(const MiningRequest& request) = 0;
};

/// Checks that exactly one source is set. Shared by every Miner
/// implementation so the error text stays uniform.
Status ValidateMiningRequest(const MiningRequest& request);

/// Extracts the transaction database from a SALES-shaped relation
/// (trans_id INT32, item INT32; another schema is InvalidArgument naming
/// the column): one typed scan, grouped by trans_id, items
/// sorted per transaction, transactions ordered by id. Duplicate
/// (trans_id, item) rows are InvalidArgument — row-oriented miners would
/// count them, so silently merging here would break cross-algorithm
/// equivalence. This is how algorithms without a native table pipeline
/// (apriori, ais, brute-force, nested-loop) serve MiningRequest::table.
Result<TransactionDb> TransactionsFromTable(const Table& sales);

}  // namespace setm

#endif  // SETM_CORE_MINER_H_
