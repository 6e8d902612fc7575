#ifndef SETM_BASELINES_APRIORI_H_
#define SETM_BASELINES_APRIORI_H_

#include <cstddef>

#include "core/types.h"

namespace setm {

class WorkerPool;

/// Apriori (Agrawal & Srikant, VLDB'94) — the algorithm that superseded
/// SETM in practice and the natural modern baseline for the extension
/// benchmark (`ext_setm_vs_apriori` in bench/README.md).
///
/// Pass k: candidates C_k are generated by self-joining L_{k-1} on the first
/// k-2 items and pruned by the anti-monotone subset test; one scan of the
/// transactions counts the candidates through a hash tree; candidates with
/// support >= minsupport form L_k.
///
/// The counting scan uses count distribution (Agrawal & Shafer, TKDE'96):
/// the transactions are cut into up to `num_threads` contiguous chunks, each
/// chunk counts the same candidate list against its own hash tree
/// (HashTree's probe stamps make one shared tree a data race), and the
/// per-chunk counts are summed before the minsupport filter. Candidate
/// generation stays serial, so results and per-iteration stats are
/// identical for any thread count; one chunk counts inline on the calling
/// thread.
class AprioriMiner {
 public:
  /// `pool` (optional, borrowed) runs the chunk tasks; without one, a
  /// private pool of `num_threads - 1` workers is spun up per Mine call
  /// when num_threads > 1, and the waiting caller counts a chunk too.
  explicit AprioriMiner(size_t num_threads = 1, WorkerPool* pool = nullptr)
      : num_threads_(num_threads), pool_(pool) {}

  Result<MiningResult> Mine(const TransactionDb& transactions,
                            const MiningOptions& options);

  /// Candidate generation, exposed for unit tests: joins sorted L_{k-1}
  /// itemsets and applies the subset prune. Returns sorted candidates of
  /// size k.
  static std::vector<std::vector<ItemId>> GenerateCandidates(
      const std::vector<std::vector<ItemId>>& prev_frequent);

 private:
  size_t num_threads_;
  WorkerPool* pool_;
};

}  // namespace setm

#endif  // SETM_BASELINES_APRIORI_H_
