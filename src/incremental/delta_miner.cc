#include "incremental/delta_miner.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace setm {

Result<DeltaDerivation> DeriveWithDelta(Database* db,
                                        const StoredResult& stored,
                                        const TransactionDb& delta,
                                        const Table& sales,
                                        const SetmOptions& setm,
                                        const MiningOptions& options,
                                        obs::TraceSpan* trace) {
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
  //    The counts take no threshold, observer or pattern cap.
  auto in_delta = SetmMiner(db, setm, &stored.itemsets).Mine(delta, {});
  if (!in_delta.ok()) return in_delta.status();
  FrequentItemsets combined;
  for (size_t k = 1; k <= stored.itemsets.MaxSize(); ++k) {
    for (const PatternCount& pc : stored.itemsets.OfSize(k)) {
      const int64_t total =
          pc.count + in_delta.value().itemsets.CountOf(pc.items);
      if (total >= minsup) combined.Add(pc.items, total);
    }
  }

  // 3. Borderline itemsets (delta-frequent, not stored): their old count is
  //    undecidable from the store, so count them over the old partition,
  //    the rows of `sales` up to the stored watermark. Their lattice holds
  //    them with their prefixes and items, all a lattice count needs.
  std::vector<PatternCount> borderline;
  FrequentItemsets lattice;
  const auto add = [&lattice](std::vector<ItemId> items) {
    if (lattice.CountOf(items) == 0) lattice.Add(std::move(items), 1);
  };
  for (size_t k = 1; k <= delta_result.itemsets.MaxSize(); ++k) {
    for (const PatternCount& pc : delta_result.itemsets.OfSize(k)) {
      if (stored.itemsets.CountOf(pc.items) != 0) continue;
      borderline.push_back(pc);
      for (size_t i = 1; i <= k; ++i) {
        add({pc.items.begin(), pc.items.begin() + i});
        add({pc.items[i - 1]});
      }
    }
  }
  DeltaDerivation out;
  out.borderline_candidates = borderline.size();
  if (!borderline.empty()) {
    obs::TraceSpan* span =
        trace != nullptr ? trace->StartChild("old partition") : nullptr;
    // The shards are cut from the old partition's rows, which the planner
    // checked equal the store's source_rows (0 in a store from before
    // that column: the table's rows).
    auto in_old = SetmMiner(db, setm, &lattice, span)
                      .MineTable(sales, {}, stored.meta.watermark,
                                 stored.meta.source_rows);
    if (span != nullptr) span->End();
    if (!in_old.ok()) return in_old.status();
    for (PatternCount& pc : borderline) {
      const int64_t total =
          in_old.value().itemsets.CountOf(pc.items) + pc.count;
      if (total >= minsup) combined.Add(std::move(pc.items), total);
    }
  }
  combined.Normalize();
  combined.num_transactions = combined_transactions;
  out.result.itemsets = std::move(combined);
  out.result.iterations = std::move(delta_result.iterations);
  return out;
}

}  // namespace setm
