#ifndef SETM_INCREMENTAL_ITEMSET_STORE_H_
#define SETM_INCREMENTAL_ITEMSET_STORE_H_

#include <string>

#include "core/types.h"
#include "relational/database.h"

namespace setm {

/// Metadata of one persisted mining run — everything the incremental
/// maintenance path needs to decide, without touching the old data, whether
/// a stored support can be combined with a delta count.
struct StoredRunMeta {
  /// Transactions covered by the stored counts (|D_old|).
  uint64_t num_transactions = 0;
  /// The resolved support threshold the stored run was mined with, in
  /// transactions. Every itemset *not* in the store is known to have had
  /// count <= min_support_count - 1 over the covered transactions — the
  /// inequality the delta derivation's borderline rule is built on.
  int64_t min_support_count = 0;
  /// The original MiningOptions spec (fraction and absolute forms). An
  /// incremental update must be asked with the same spec; otherwise the
  /// stored counts answer a different question and a full remine is forced.
  double spec_min_support = 0.0;
  int64_t spec_min_support_count = 0;
  uint64_t max_pattern_length = 0;
  /// Highest trans_id covered by the stored counts. Appended batches must
  /// use strictly larger ids — that is what makes "old partition" and
  /// "delta partition" disjoint by predicate alone.
  TransactionId watermark = 0;
  /// Name of the SALES relation the run mined ("" when not table-backed).
  std::string source_table;
  /// Row count of the source relation when the run was stored (0 when not
  /// table-backed or stored by a build predating the column). Source tables
  /// are append-only, so equality with the live row count is an O(1)
  /// freshness check that needs no scan.
  uint64_t source_rows = 0;
};

/// A loaded store: the frequent itemsets with their exact supports plus the
/// run metadata.
struct StoredResult {
  FrequentItemsets itemsets;
  StoredRunMeta meta;
};

/// Persists the result of a mining run as schema'd catalog relations, in
/// the paper's spirit of keeping everything inside the DBMS: each F_k
/// level becomes a relation `<prefix>_f<k>` (item1..itemk INT32,
/// support INT64) — the materialized count relation C_k — and the run
/// metadata becomes the one-row relation `<prefix>_meta`. Both live behind
/// the Catalog, so the SQL engine can scan them like any other table
/// (`SELECT * FROM fi_f2 WHERE support >= 100`), and either TableBacking
/// works: kHeap puts the store on paged storage where loads and saves show
/// up in the IoStats ledger.
///
/// In a file-backed database with kHeap backing the store is durable: the
/// catalog manifest (src/persist/) records the relations at every DDL, so
/// Save() in one process and Load() — or a MiningPlanner append — in a
/// later one operate on the same run (persist_test and
/// scripts/smoke_db_persist.sh exercise the cross-process round trip).
///
///     ItemsetStore store(&db, "fi", TableBacking::kHeap);
///     store.Save(result.itemsets, meta);
///     auto loaded = store.Load().value();   // identical itemsets + meta
class ItemsetStore {
 public:
  /// `prefix` must be a valid SQL identifier; tables are created through
  /// `db->catalog()` with the given backing.
  ItemsetStore(Database* db, std::string prefix,
               TableBacking backing = TableBacking::kMemory);

  /// Materializes `itemsets` + `meta`, replacing any previous run stored
  /// under this prefix. `itemsets.num_transactions` is ignored in favour of
  /// `meta.num_transactions` (they are the same value on every sane call).
  Status Save(const FrequentItemsets& itemsets, const StoredRunMeta& meta);

  /// Loads the stored run; NotFound when nothing was saved under the
  /// prefix, and NotFound (naming the table) when the meta row references a
  /// source relation that has since been dropped — the store is then an
  /// orphan, not a corruption, and callers fall back to a full mine. The
  /// returned itemsets are normalized and carry exact supports: Save() then
  /// Load() round-trips to an identical FrequentItemsets.
  Result<StoredResult> Load() const;

  /// Reads only the one-row metadata relation — the cache key — without
  /// touching any level relation. Same NotFound semantics as Load().
  Result<StoredRunMeta> LoadMeta() const;

  /// Loads the stored run filtered to `support >= min_support_count`
  /// (and, when `max_pattern_length` > 0, to patterns of at most that many
  /// items). The anti-monotone property makes this exact whenever the
  /// stored threshold is <= the requested one: every itemset frequent at
  /// the higher threshold is already materialized, so filtering stored
  /// levels answers the query with zero mining. Level scans stop early at
  /// the first level where nothing survives the filter — no superset can
  /// survive either. The caller is responsible for checking domination via
  /// LoadMeta(); this routine just filters what is stored.
  Result<StoredResult> LoadAtSupport(int64_t min_support_count,
                                     uint64_t max_pattern_length = 0) const;

  /// True iff a run is stored under this prefix.
  bool Exists() const;

  /// Drops every relation of the stored run (idempotent).
  Status Drop();

  const std::string& prefix() const { return prefix_; }
  std::string MetaTableName() const { return prefix_ + "_meta"; }
  std::string LevelTableName(size_t k) const {
    return prefix_ + "_f" + std::to_string(k);
  }

  /// Schema of the one-row metadata relation.
  static Schema MetaSchema();

  /// Schema of a level relation: (item1 .. itemk INT32, support INT64).
  static Schema LevelSchema(size_t k);

 private:
  /// Reads and validates the one-row metadata relation; shared by Load,
  /// LoadMeta and LoadAtSupport. `max_k` receives the number of stored
  /// level relations.
  Status ReadMetaRow(StoredRunMeta* meta, size_t* max_k) const;

  /// Scans level relations 1..max_k into `out`, keeping rows with
  /// `support >= min_support_count` (0 keeps everything). Stops at the
  /// first level where nothing survives — anti-monotonicity guarantees no
  /// larger pattern can either. `max_level` of 0 means "all stored levels".
  Status LoadLevels(size_t max_k, int64_t min_support_count, size_t max_level,
                    FrequentItemsets* out) const;

  Database* db_;
  std::string prefix_;
  TableBacking backing_;
};

/// Builds the metadata record of a *full* mining run: resolves the support
/// threshold the run effectively used from `options` and
/// `itemsets.num_transactions`, and records the caller-supplied watermark
/// (the highest transaction id the run covered).
StoredRunMeta MakeRunMeta(const FrequentItemsets& itemsets,
                          const MiningOptions& options,
                          TransactionId watermark,
                          std::string source_table = "",
                          uint64_t source_rows = 0);

/// Highest transaction id in the database (0 when empty) — the watermark of
/// a run that mined exactly these transactions.
TransactionId MaxTransactionId(const TransactionDb& transactions);

}  // namespace setm

#endif  // SETM_INCREMENTAL_ITEMSET_STORE_H_
