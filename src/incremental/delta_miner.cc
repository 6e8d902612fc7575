#include "incremental/delta_miner.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "exec/external_sort.h"

namespace setm {

namespace {

/// True iff every item of `pattern` occurs in `txn_items`.
bool ContainsPattern(const std::unordered_set<ItemId>& txn_items,
                     const std::vector<ItemId>& pattern) {
  for (ItemId item : pattern) {
    if (txn_items.count(item) == 0) return false;
  }
  return true;
}

/// Exact delta count of every stored pattern: one pass over the delta
/// transactions, testing containment against each pattern. This is
/// decidable purely in memory — the stored supports plus these counts
/// settle every stored itemset's global frequency without touching the old
/// partition.
std::vector<std::pair<const PatternCount*, int64_t>> CountStoredInDelta(
    const FrequentItemsets& stored, const TransactionDb& delta) {
  std::vector<std::pair<const PatternCount*, int64_t>> counts;
  for (size_t k = 1; k <= stored.MaxSize(); ++k) {
    for (const PatternCount& pc : stored.OfSize(k)) {
      counts.emplace_back(&pc, 0);
    }
  }
  std::unordered_set<ItemId> txn_items;
  for (const Transaction& t : delta) {
    if (t.items.empty()) continue;
    txn_items.clear();
    txn_items.insert(t.items.begin(), t.items.end());
    for (auto& entry : counts) {
      if (ContainsPattern(txn_items, entry.first->items)) ++entry.second;
    }
  }
  return counts;
}

/// Counts the borderline candidates against the old partition: one scan of
/// the SALES relation keeping rows with trans_id <= watermark, grouped into
/// transactions via the external sort (the relation can exceed RAM, so
/// grouping must go through the bounded-memory spill path, not an in-memory
/// vector), each transaction tested against every candidate. Skipped
/// entirely when no candidate exists.
Result<std::vector<int64_t>> CountCandidatesInOldPartition(
    Database* db, const Table& sales, TransactionId watermark,
    const std::vector<PatternCount>& candidates) {
  std::vector<int64_t> counts(candidates.size(), 0);
  if (candidates.empty()) return counts;

  ExecContext ctx = ExecContext::From(db);
  IntRowSort sort(ctx, /*width=*/2, /*key_begin=*/0, /*key_end=*/2);
  {
    auto it = sales.Scan();
    Tuple row;
    while (true) {
      auto more = it->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      const int32_t pair[2] = {row.value(0).AsInt32(), row.value(1).AsInt32()};
      if (pair[0] <= watermark) SETM_RETURN_IF_ERROR(sort.Add(pair));
    }
  }
  auto sorted_or = sort.Finish();
  if (!sorted_or.ok()) return sorted_or.status();

  std::unordered_set<ItemId> txn_items;
  bool in_txn = false;
  TransactionId current = 0;
  auto flush_txn = [&] {
    if (!in_txn) return;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (ContainsPattern(txn_items, candidates[c].items)) ++counts[c];
    }
  };
  SETM_RETURN_IF_ERROR(ForEachRow(
      sorted_or.value().get(), [&](const int32_t* pair) {
        if (!in_txn || pair[0] != current) {
          flush_txn();
          txn_items.clear();
          current = pair[0];
          in_txn = true;
        }
        txn_items.insert(pair[1]);
        return Status::OK();
      }));
  flush_txn();
  return counts;
}

}  // namespace

Result<DeltaDerivation> DeriveWithDelta(Database* db,
                                        const StoredResult& stored,
                                        const TransactionDb& delta,
                                        const Table& sales,
                                        const SetmOptions& setm,
                                        const MiningOptions& options) {
  uint64_t delta_transactions = 0;
  for (const Transaction& t : delta) {
    if (!t.items.empty()) ++delta_transactions;
  }
  const uint64_t combined_transactions =
      stored.meta.num_transactions + delta_transactions;
  const int64_t minsup =
      ResolveMinSupportCount(options, combined_transactions);

  // 1. Mine only the delta partition. An itemset absent from the store has
  //    old count <= stored minsup - 1, so it can reach the combined
  //    threshold only with delta count >= minsup - stored minsup + 1.
  MiningOptions delta_options = options;
  delta_options.min_support_count =
      std::max<int64_t>(1, minsup - stored.meta.min_support_count + 1);
  auto delta_mined = SetmMiner(db, setm).Mine(delta, delta_options);
  if (!delta_mined.ok()) return delta_mined.status();
  MiningResult delta_result = std::move(delta_mined).value();

  // 2. Stored itemsets: exact combined support = stored + delta count.
  FrequentItemsets combined;
  for (const auto& entry : CountStoredInDelta(stored.itemsets, delta)) {
    const int64_t total = entry.first->count + entry.second;
    if (total >= minsup) combined.Add(entry.first->items, total);
  }

  // 3. Borderline itemsets (delta-frequent, not stored): their old count is
  //    undecidable from the store, so re-count them in one scan of the old
  //    partition.
  std::vector<PatternCount> borderline;
  for (size_t k = 1; k <= delta_result.itemsets.MaxSize(); ++k) {
    for (const PatternCount& pc : delta_result.itemsets.OfSize(k)) {
      if (stored.itemsets.CountOf(pc.items) == 0) borderline.push_back(pc);
    }
  }
  auto old_counts_or = CountCandidatesInOldPartition(
      db, sales, stored.meta.watermark, borderline);
  if (!old_counts_or.ok()) return old_counts_or.status();
  const std::vector<int64_t>& old_counts = old_counts_or.value();

  DeltaDerivation out;
  out.borderline_candidates = borderline.size();
  for (size_t c = 0; c < borderline.size(); ++c) {
    const int64_t total = old_counts[c] + borderline[c].count;
    if (total >= minsup) combined.Add(std::move(borderline[c].items), total);
  }
  combined.Normalize();
  combined.num_transactions = combined_transactions;
  out.result.itemsets = std::move(combined);
  out.result.iterations = std::move(delta_result.iterations);
  return out;
}

}  // namespace setm
