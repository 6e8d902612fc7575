#include "incremental/delta_miner.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/miner_registry.h"
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

/// The stored run answers the same question iff the support spec and the
/// pattern-length cap match; anything else makes stored supports useless
/// for combination and forces the full-remine path.
bool OptionsCompatible(const StoredRunMeta& meta,
                       const MiningOptions& options) {
  return meta.spec_min_support == options.min_support &&
         meta.spec_min_support_count == options.min_support_count &&
         meta.max_pattern_length == options.max_pattern_length;
}

}  // namespace

Result<DeltaMineResult> DeltaMiner::AppendAndUpdate(
    ItemsetStore* store, Table* sales, const TransactionDb& delta,
    const MiningOptions& options) {
  WallTimer total_timer;
  const IoStats io_before = *db_->io_stats();

  SETM_RETURN_IF_ERROR(ValidateTransactions(delta));
  auto stored_or = store->Load();
  if (!stored_or.ok()) return stored_or.status();
  StoredResult stored = std::move(stored_or).value();

  // The watermark is the partition boundary: ids at or below it are already
  // counted in the store, so reusing one would double-count silently.
  {
    std::unordered_set<TransactionId> seen;
    for (const Transaction& t : delta) {
      if (t.id <= stored.meta.watermark) {
        return Status::InvalidArgument(
            "delta transaction " + std::to_string(t.id) +
            " is at or below the stored watermark " +
            std::to_string(stored.meta.watermark));
      }
      if (!seen.insert(t.id).second) {
        return Status::InvalidArgument("duplicate delta transaction id " +
                                       std::to_string(t.id));
      }
    }
  }

  // Crash-interrupted append detection: rows beyond the stored watermark
  // mean a previous AppendAndUpdate committed its batch but died before the
  // store update checkpointed. Commit() marks whole batches only, so such
  // orphans are complete transactions; the retry contract is that the
  // caller re-submits the same batch, in which case each orphan is skipped
  // on insert instead of duplicated. An orphan id the batch does *not*
  // re-submit means the table and the retry diverged — refuse rather than
  // silently mix two different batches.
  std::unordered_set<TransactionId> orphans;
  {
    auto it = sales->Scan();
    Tuple row;
    while (true) {
      auto more = it->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      const TransactionId tid = row.value(0).AsInt32();
      if (tid > stored.meta.watermark) orphans.insert(tid);
    }
  }
  if (!orphans.empty()) {
    std::unordered_set<TransactionId> batch_ids;
    for (const Transaction& t : delta) batch_ids.insert(t.id);
    for (TransactionId tid : orphans) {
      if (batch_ids.count(tid) == 0) {
        return Status::InvalidArgument(
            "table '" + sales->name() + "' already holds transaction " +
            std::to_string(tid) + " beyond the stored watermark " +
            std::to_string(stored.meta.watermark) +
            " (a crash-interrupted append), and this batch does not "
            "re-submit it — retry the interrupted batch first");
      }
    }
  }

  TransactionId new_watermark = stored.meta.watermark;
  uint64_t delta_transactions = 0;
  for (const Transaction& t : delta) {
    if (!t.items.empty()) ++delta_transactions;
    new_watermark = std::max(new_watermark, t.id);
  }
  // The table mutation is deferred until every failure-prone computation of
  // the chosen path has succeeded, so an error normally leaves SALES
  // untouched (see the AppendAndUpdate contract).
  auto append_batch = [&]() -> Status {
    for (const Transaction& t : delta) {
      if (orphans.count(t.id) != 0) continue;  // already in the table
      for (ItemId item : t.items) {
        SETM_RETURN_IF_ERROR(
            sales->Insert(Tuple({Value::Int32(t.id), Value::Int32(item)})));
      }
    }
    // Batch boundary: the rows are crash-durable — and replay-atomic as a
    // unit — from here, even though the store update below still has to
    // checkpoint. A kill in between leaves exactly the orphan state the
    // scan above repairs on retry.
    return db_->Commit();
  };

  const uint64_t combined_transactions =
      stored.meta.num_transactions + delta_transactions;
  const int64_t minsup =
      ResolveMinSupportCount(options, combined_transactions);
  const int64_t stored_minsup = stored.meta.min_support_count;

  DeltaMineResult out;
  out.delta_transactions = delta_transactions;

  const bool too_large =
      static_cast<double>(delta_transactions) >
      options_.full_remine_fraction *
          static_cast<double>(std::max<uint64_t>(combined_transactions, 1));
  if (too_large || !OptionsCompatible(stored.meta, options)) {
    // Full remine of the combined relation through the polymorphic mining
    // interface — the same surface the CLI and benches drive, so observer
    // callbacks and cancellation work on the fallback path too.
    SETM_RETURN_IF_ERROR(append_batch());
    auto miner_or = MinerRegistry::Create("setm", db_, options_.setm);
    if (!miner_or.ok()) return miner_or.status();
    MiningRequest request;
    request.table = sales;
    request.options = options;
    auto remined = miner_or.value()->Mine(request);
    if (!remined.ok()) return remined.status();
    out.result = std::move(remined).value();
    out.full_remine = true;
  } else {
    // 1. Mine only the delta partition. An itemset absent from the store
    //    has old count <= stored_minsup - 1, so it can reach the combined
    //    threshold only with delta count >= minsup - stored_minsup + 1.
    MiningOptions delta_options = options;
    delta_options.min_support_count =
        std::max<int64_t>(1, minsup - stored_minsup + 1);
    SetmMiner miner(db_, options_.setm);
    auto delta_mined = miner.Mine(delta, delta_options);
    if (!delta_mined.ok()) return delta_mined.status();
    MiningResult delta_result = std::move(delta_mined).value();

    // 2. Stored itemsets: exact combined support = stored + delta count.
    FrequentItemsets combined;
    for (const auto& entry : CountStoredInDelta(stored.itemsets, delta)) {
      const int64_t total = entry.first->count + entry.second;
      if (total >= minsup) {
        combined.Add(entry.first->items, total);
      }
    }

    // 3. Borderline itemsets (delta-frequent, not stored): their old count
    //    is undecidable from the store, so re-count them in one scan of the
    //    old partition (= the whole of SALES, since the batch is not
    //    appended yet).
    std::vector<PatternCount> borderline;
    for (size_t k = 1; k <= delta_result.itemsets.MaxSize(); ++k) {
      for (const PatternCount& pc : delta_result.itemsets.OfSize(k)) {
        if (stored.itemsets.CountOf(pc.items) == 0) borderline.push_back(pc);
      }
    }
    out.borderline_candidates = borderline.size();
    auto old_counts_or = CountCandidatesInOldPartition(
        db_, *sales, stored.meta.watermark, borderline);
    if (!old_counts_or.ok()) return old_counts_or.status();
    const std::vector<int64_t>& old_counts = old_counts_or.value();
    for (size_t c = 0; c < borderline.size(); ++c) {
      const int64_t total = old_counts[c] + borderline[c].count;
      if (total >= minsup) {
        combined.Add(std::move(borderline[c].items), total);
      }
    }

    combined.Normalize();
    combined.num_transactions = combined_transactions;
    out.result.itemsets = std::move(combined);
    out.result.iterations = std::move(delta_result.iterations);

    // All computation succeeded; only now does the batch reach the table.
    SETM_RETURN_IF_ERROR(append_batch());
  }

  // Persist the refreshed run so the next batch starts from here.
  StoredRunMeta meta;
  meta.num_transactions = out.result.itemsets.num_transactions;
  meta.min_support_count =
      ResolveMinSupportCount(options, out.result.itemsets.num_transactions);
  meta.spec_min_support = options.min_support;
  meta.spec_min_support_count = options.min_support_count;
  meta.max_pattern_length = options.max_pattern_length;
  meta.watermark = new_watermark;
  meta.source_table = sales->name();
  meta.source_rows = sales->num_rows();
  SETM_RETURN_IF_ERROR(store->Save(out.result.itemsets, meta));

  out.result.total_seconds = total_timer.ElapsedSeconds();
  out.result.io = Diff(*db_->io_stats(), io_before);
  return out;
}

}  // namespace setm
