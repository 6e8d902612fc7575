#include "baselines/apriori.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "baselines/hash_tree.h"
#include "common/timer.h"
#include "exec/worker_pool.h"

namespace setm {

namespace {

/// One contiguous transaction range [begin, end).
struct Chunk {
  size_t begin = 0;
  size_t end = 0;
};

/// Cuts `n` transactions into at most `want` contiguous chunks of equal
/// size (the last may be shorter); always at least one, empty when n is 0.
std::vector<Chunk> SplitChunks(size_t n, size_t want) {
  const size_t most = std::max<size_t>(1, std::min(want, n));
  const size_t target = std::max<size_t>(1, (n + most - 1) / most);
  std::vector<Chunk> chunks;
  for (size_t begin = 0; begin < n || chunks.empty(); begin += target) {
    chunks.push_back(Chunk{begin, std::min(n, begin + target)});
  }
  return chunks;
}

bool ByItems(const PatternCount& a, const PatternCount& b) {
  return a.items < b.items;
}

}  // namespace

std::vector<std::vector<ItemId>> AprioriMiner::GenerateCandidates(
    const std::vector<std::vector<ItemId>>& prev) {
  std::vector<std::vector<ItemId>> candidates;
  if (prev.empty()) return candidates;
  const size_t k1 = prev[0].size();  // size of L_{k-1} itemsets

  std::unordered_set<std::string> prev_keys;
  prev_keys.reserve(prev.size() * 2);
  for (const auto& items : prev) prev_keys.insert(ItemsetKey(items));

  // Join step: pairs sharing the first k-2 items (prev is sorted, so equal
  // prefixes are contiguous).
  for (size_t i = 0; i < prev.size(); ++i) {
    for (size_t j = i + 1; j < prev.size(); ++j) {
      bool same_prefix =
          std::equal(prev[i].begin(), prev[i].end() - 1, prev[j].begin());
      if (!same_prefix) break;  // sorted order: no later j can match either
      std::vector<ItemId> cand = prev[i];
      cand.push_back(prev[j].back());
      // Prune step: every (k-1)-subset must be frequent.
      bool keep = true;
      std::vector<ItemId> subset(cand.size() - 1);
      for (size_t drop = 0; drop + 2 < cand.size() && keep; ++drop) {
        // Subsets missing the last two items are new; subsets missing one
        // of the last two equal prev[i]/prev[j], already known frequent.
        size_t s = 0;
        for (size_t x = 0; x < cand.size(); ++x) {
          if (x != drop) subset[s++] = cand[x];
        }
        keep = prev_keys.count(ItemsetKey(subset)) != 0;
      }
      if (keep) candidates.push_back(std::move(cand));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  (void)k1;
  return candidates;
}

Result<MiningResult> AprioriMiner::Mine(const TransactionDb& transactions,
                                        const MiningOptions& options) {
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  WallTimer timer;
  MiningResult result;
  result.itemsets.num_transactions = transactions.size();
  const int64_t minsup = ResolveMinSupportCount(options, transactions.size());

  const std::vector<Chunk> chunks =
      SplitChunks(transactions.size(), std::max<size_t>(1, num_threads_));
  // One chunk counts inline on the calling thread. Of more, the waiting
  // caller counts one (TaskGroup::Wait), so an owned pool has a thread
  // fewer than the chunks.
  WorkerPool* pool = chunks.size() > 1 ? pool_ : nullptr;
  std::unique_ptr<WorkerPool> owned_pool;
  if (pool == nullptr && chunks.size() > 1) {
    owned_pool = std::make_unique<WorkerPool>(chunks.size() - 1);
    pool = owned_pool.get();
  }

  // Pass 1: per-chunk item counts, summed into chunk 0's before the filter.
  std::vector<std::vector<ItemId>> frontier;
  {
    WallTimer iter_timer;
    std::vector<std::unordered_map<ItemId, int64_t>> partial(chunks.size());
    TaskGroup group(pool);
    for (size_t c = 0; c < chunks.size(); ++c) {
      const Chunk chunk = chunks[c];
      std::unordered_map<ItemId, int64_t>* out = &partial[c];
      group.Submit([&transactions, chunk, out] {
        for (size_t t = chunk.begin; t < chunk.end; ++t) {
          for (ItemId item : transactions[t].items) ++(*out)[item];
        }
        return Status::OK();
      });
    }
    SETM_RETURN_IF_ERROR(group.Wait());
    std::unordered_map<ItemId, int64_t>& counts = partial[0];
    for (size_t c = 1; c < partial.size(); ++c) {
      for (const auto& [item, count] : partial[c]) counts[item] += count;
    }
    std::vector<PatternCount> l1;
    for (const auto& [item, count] : counts) {
      if (count >= minsup) l1.push_back(PatternCount{{item}, count});
    }
    std::sort(l1.begin(), l1.end(), ByItems);
    for (PatternCount& pc : l1) {
      frontier.push_back(pc.items);
      result.itemsets.Add(std::move(pc.items), pc.count);
    }
    IterationStats stats;
    stats.k = 1;
    stats.r_prime_rows = counts.size();
    stats.c_size = frontier.size();
    stats.seconds = iter_timer.ElapsedSeconds();
    result.iterations.push_back(stats);
    SETM_RETURN_IF_ERROR(NotifyIteration(options, stats));
  }

  for (size_t k = 2; !frontier.empty(); ++k) {
    if (options.max_pattern_length != 0 && k > options.max_pattern_length) {
      break;
    }
    WallTimer iter_timer;
    std::vector<std::vector<ItemId>> candidates =
        GenerateCandidates(frontier);
    if (candidates.empty()) break;

    // One hash tree per chunk over the identical candidate list. The same
    // insertion sequence builds the same tree shape, so every tree visits
    // the candidates in the same order and the counts sum by position.
    std::vector<std::unique_ptr<HashTree>> trees(chunks.size());
    TaskGroup group(pool);
    for (size_t c = 0; c < chunks.size(); ++c) {
      const Chunk chunk = chunks[c];
      std::unique_ptr<HashTree>* tree = &trees[c];
      group.Submit([&transactions, &candidates, chunk, k, tree] {
        *tree = std::make_unique<HashTree>(k);
        for (const auto& cand : candidates) (*tree)->Insert(cand);
        for (size_t t = chunk.begin; t < chunk.end; ++t) {
          (*tree)->CountTransaction(transactions[t].items);
        }
        return Status::OK();
      });
    }
    SETM_RETURN_IF_ERROR(group.Wait());
    std::vector<int64_t> other_counts;  // chunks 1.., by visit position
    if (trees.size() > 1) {
      other_counts.assign(candidates.size(), 0);
      for (size_t c = 1; c < trees.size(); ++c) {
        size_t pos = 0;
        trees[c]->ForEach([&](const std::vector<ItemId>&, int64_t count) {
          other_counts[pos++] += count;
        });
      }
    }

    frontier.clear();
    std::vector<PatternCount> lk;
    size_t pos = 0;
    trees[0]->ForEach([&](const std::vector<ItemId>& items, int64_t count) {
      if (!other_counts.empty()) count += other_counts[pos++];
      if (count >= minsup) lk.push_back(PatternCount{items, count});
    });
    std::sort(lk.begin(), lk.end(), ByItems);
    for (PatternCount& pc : lk) {
      frontier.push_back(pc.items);
      result.itemsets.Add(std::move(pc.items), pc.count);
    }

    IterationStats stats;
    stats.k = k;
    stats.r_prime_rows = candidates.size();
    stats.c_size = frontier.size();
    stats.seconds = iter_timer.ElapsedSeconds();
    result.iterations.push_back(stats);
    SETM_RETURN_IF_ERROR(NotifyIteration(options, stats));
  }

  result.itemsets.Normalize();
  result.total_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace setm
