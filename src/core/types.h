#ifndef SETM_CORE_TYPES_H_
#define SETM_CORE_TYPES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"

namespace setm {

/// Items and transaction ids are 4-byte integers, as in the paper's
/// analysis ("each item and transaction id is represented using 4 bytes").
using ItemId = int32_t;
using TransactionId = int32_t;

/// One customer transaction (basket). Items are kept sorted and unique.
struct Transaction {
  TransactionId id = 0;
  std::vector<ItemId> items;
};

/// A transaction database, the logical content of SALES(trans_id, item).
using TransactionDb = std::vector<Transaction>;

/// An itemset with its support count — one row of a count relation C_k.
struct PatternCount {
  std::vector<ItemId> items;  // lexicographically ordered
  int64_t count = 0;

  bool operator==(const PatternCount& o) const {
    return count == o.count && items == o.items;
  }
};

/// A k-itemset's key in SETM's candidate-id space: the itemset with id
/// `parent` in the sorted C_{k-1} (for k = 1, 0: the empty itemset) plus
/// `item`. Ids follow itemset order, so key order is itemset order.
struct CandidateKey {
  int32_t parent = 0;
  ItemId item = 0;

  bool operator<(const CandidateKey& o) const {
    return parent != o.parent ? parent < o.parent : item < o.item;
  }
  bool operator==(const CandidateKey& o) const {
    return parent == o.parent && item == o.item;
  }
};

/// Serializes an itemset into a flat hash key.
std::string ItemsetKey(const std::vector<ItemId>& items);

/// All frequent itemsets found by a miner, organized by size: the contents
/// of the count relations C_1, C_2, ... plus a lookup index used by rule
/// generation ("available by lookup in a previous count relation").
class FrequentItemsets {
 public:
  /// Registers one frequent pattern; `items` must be sorted ascending.
  void Add(std::vector<ItemId> items, int64_t count);

  /// Support count of an exact itemset, or 0 if it is not frequent.
  int64_t CountOf(const std::vector<ItemId>& items) const;

  /// The patterns of size k (empty vector when none). k >= 1.
  const std::vector<PatternCount>& OfSize(size_t k) const;

  /// Largest k with any frequent pattern (0 when empty).
  size_t MaxSize() const { return by_size_.size(); }

  /// Total number of frequent patterns over all sizes.
  size_t TotalPatterns() const;

  /// Number of transactions in the mined database (for support fractions).
  uint64_t num_transactions = 0;

  /// Canonical ordering (by size, then lexicographic items) applied in
  /// place; makes outputs of different miners directly comparable.
  void Normalize();

  bool operator==(const FrequentItemsets& o) const;

 private:
  std::vector<std::vector<PatternCount>> by_size_;  // [k-1] -> C_k rows
  std::unordered_map<std::string, int64_t> index_;
};

/// An association rule X => Y with its metrics. The paper's generator emits
/// single-item consequents; the extended (Agrawal-style) generator allows
/// larger consequents.
struct AssociationRule {
  std::vector<ItemId> antecedent;
  std::vector<ItemId> consequent;
  double confidence = 0.0;  // |X u Y| / |X|
  double support = 0.0;     // |X u Y| / |D|
  /// Lift = confidence / P(Y): > 1 means X genuinely raises the odds of Y
  /// (a post-1995 metric, filled in because bare confidence famously
  /// over-reports rules whose consequent is popular anyway). 0 when the
  /// consequent's own support was unavailable.
  double lift = 0.0;

  bool operator==(const AssociationRule& o) const {
    return antecedent == o.antecedent && consequent == o.consequent;
  }
};

struct IterationStats;

/// Per-iteration hook shared by every miner. Implementations receive the
/// finished iteration's IterationStats and decide whether mining continues:
/// returning false requests cooperative cancellation — the miner stops
/// before starting the next iteration, releases its scratch state (SQL
/// miners drop their catalog scratch relations) and returns a Status with
/// code kCancelled. Callbacks run on the thread driving the mining loop;
/// they must not re-enter the miner.
class MiningObserver {
 public:
  virtual ~MiningObserver() = default;

  /// Called once per completed iteration, in k order. Return true to
  /// continue, false to cancel.
  virtual bool OnIteration(const IterationStats& stats) = 0;
};

/// Mining parameters shared by every miner in this library.
struct MiningOptions {
  /// Minimum support as a fraction of transactions (e.g. 0.01 = 1%).
  /// Used when min_support_count == 0.
  double min_support = 0.01;
  /// Absolute minimum support count; overrides min_support when > 0.
  int64_t min_support_count = 0;
  /// Minimum confidence for rule generation (e.g. 0.7 = 70%).
  double min_confidence = 0.5;
  /// Stop after patterns of this length (0 = run until fixpoint).
  size_t max_pattern_length = 0;
  /// SETM ablation: drop non-frequent items from R1 before the loop.
  /// The paper's Figure 4 joins with the unfiltered R1; this switch enables
  /// the obvious optimization for comparison.
  bool filter_r1 = false;
  /// Optional per-iteration observer (not owned; must outlive the Mine
  /// call). Not part of the mining "question": stored-run compatibility and
  /// result identity ignore it. See MiningObserver for the cancellation
  /// contract.
  MiningObserver* observer = nullptr;
};

/// Reports a finished iteration to options.observer, if any. Returns a
/// kCancelled Status when the observer vetoes continuing — miners propagate
/// it as the result of the whole Mine call.
Status NotifyIteration(const MiningOptions& options,
                       const IterationStats& stats);

/// Resolves the effective support threshold in transactions (>= 1).
int64_t ResolveMinSupportCount(const MiningOptions& options,
                               uint64_t num_transactions);

/// Per-iteration observability, the raw material for Figures 5 and 6.
struct IterationStats {
  size_t k = 0;              ///< pattern length of this iteration
  uint64_t r_prime_rows = 0; ///< |R'_k| (candidate pattern tuples)
  uint64_t r_rows = 0;       ///< |R_k| after the support filter
  /// The paper's size of R_k, |R_k|·(k+1)·4 bytes (Figure 5 plots KB).
  uint64_t r_bytes = 0;
  /// ||R_k||, the pages R_k takes as the miner stores it. SetmMiner keeps
  /// R_1, (trans_id, item), and R_k (k >= 2), (trans_id, C_k id), as one
  /// group per transaction, trans_id once and the ids as varint deltas
  /// (GroupedRelation), so this is the pages the groups encode into;
  /// setm-sql reports its tables' pages.
  uint64_t r_pages = 0;
  uint64_t c_size = 0;       ///< |C_k| (Figure 6)
  double seconds = 0.0;      ///< wall-clock for the iteration
};

/// What a miner returns.
struct MiningResult {
  FrequentItemsets itemsets;
  std::vector<IterationStats> iterations;
  double total_seconds = 0.0;
  IoStats io;  ///< page traffic attributable to this mining run
  /// A SETM mine's intake: the SALES rows scanned, and those kept after
  /// the trans_id bound and a lattice's items. Zero for every other
  /// miner, setm-sql included.
  uint64_t sales_rows = 0;
  uint64_t kept_rows = 0;
};

/// Validates a transaction database: ids strictly increasing is not
/// required, but items within each transaction must be sorted, unique and
/// non-negative. Returns InvalidArgument describing the first offence.
Status ValidateTransactions(const TransactionDb& db);

}  // namespace setm

#endif  // SETM_CORE_TYPES_H_
