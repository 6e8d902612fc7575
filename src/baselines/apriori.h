#ifndef SETM_BASELINES_APRIORI_H_
#define SETM_BASELINES_APRIORI_H_

#include "core/types.h"

namespace setm {

/// Apriori (Agrawal & Srikant, VLDB'94) — the algorithm that superseded
/// SETM in practice and the natural modern baseline for the extension
/// benchmark (`ext_setm_vs_apriori` in bench/README.md).
///
/// Pass k: candidates C_k are generated by self-joining L_{k-1} on the first
/// k-2 items and pruned by the anti-monotone subset test; one scan of the
/// transactions counts the candidates through a hash tree; candidates with
/// support >= minsupport form L_k.
class AprioriMiner {
 public:
  Result<MiningResult> Mine(const TransactionDb& transactions,
                            const MiningOptions& options);

  /// Candidate generation, exposed for unit tests: joins sorted L_{k-1}
  /// itemsets and applies the subset prune. Returns sorted candidates of
  /// size k.
  static std::vector<std::vector<ItemId>> GenerateCandidates(
      const std::vector<std::vector<ItemId>>& prev_frequent);
};

}  // namespace setm

#endif  // SETM_BASELINES_APRIORI_H_
