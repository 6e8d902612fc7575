#ifndef SETM_BASELINES_AIS_H_
#define SETM_BASELINES_AIS_H_

#include "core/types.h"

namespace setm {

/// AIS (Agrawal, Imieliński & Swami, SIGMOD'93) — reference [4] of the
/// paper and the algorithm SETM positions itself against ("the algorithm in
/// [4] still has a tuple-oriented flavor ... and is rather complex").
///
/// Pass k: for every transaction t and every frontier itemset f from
/// L_{k-1} contained in t, the candidates f + {i} are counted for each item
/// i in t with i > max(f). Unlike Apriori, candidates are generated *during
/// the data scan*, so infrequent extensions are repeatedly materialized —
/// the inefficiency Apriori's candidate generation later removed.
///
/// Simplification vs. the original: AIS's support-estimation machinery
/// (extending by several items at once when the expected support allows)
/// is omitted; every extension is by exactly one item, which matches how
/// SETM (and the comparison in this library) iterates.
class AisMiner {
 public:
  Result<MiningResult> Mine(const TransactionDb& transactions,
                            const MiningOptions& options);
};

}  // namespace setm

#endif  // SETM_BASELINES_AIS_H_
