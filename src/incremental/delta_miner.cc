#include "incremental/delta_miner.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

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
/// the SALES relation collects the (trans_id, item) rows with trans_id <=
/// watermark into memory, as a SETM mine holds its SALES slice, sorts them
/// into transactions and tests each transaction against every candidate.
/// Skipped entirely when no candidate exists.
Result<std::vector<int64_t>> CountCandidatesInOldPartition(
    const Table& sales, TransactionId watermark,
    const std::vector<PatternCount>& candidates) {
  std::vector<int64_t> counts(candidates.size(), 0);
  if (candidates.empty()) return counts;

  std::vector<std::pair<TransactionId, ItemId>> rows;
  {
    auto it = sales.Scan();
    Tuple row;
    while (true) {
      auto more = it->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      const TransactionId tid = row.value(0).AsInt32();
      if (tid <= watermark) rows.emplace_back(tid, row.value(1).AsInt32());
    }
  }
  std::sort(rows.begin(), rows.end());

  std::unordered_set<ItemId> txn_items;
  for (size_t begin = 0; begin < rows.size();) {
    txn_items.clear();
    size_t end = begin;
    for (; end < rows.size() && rows[end].first == rows[begin].first; ++end) {
      txn_items.insert(rows[end].second);
    }
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (ContainsPattern(txn_items, candidates[c].items)) ++counts[c];
    }
    begin = end;
  }
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
  auto old_counts_or =
      CountCandidatesInOldPartition(sales, stored.meta.watermark, borderline);
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
