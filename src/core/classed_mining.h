#ifndef SETM_CORE_CLASSED_MINING_H_
#define SETM_CORE_CLASSED_MINING_H_

#include <map>
#include <vector>

#include "core/setm.h"
#include "core/types.h"
#include "relational/database.h"

namespace setm {

/// Customer-class label attached to transactions.
using ClassId = int32_t;

/// Assignment of transactions to customer classes — the CUSTOMERS
/// (trans_id, class) relation of the paper's closing remark. Transactions
/// without an assignment belong to kDefaultClass.
struct CustomerClasses {
  static constexpr ClassId kDefaultClass = 0;
  std::vector<std::pair<TransactionId, ClassId>> assignments;
};

/// Result of classed mining: one count-relation family per class.
struct ClassedMiningResult {
  std::map<ClassId, FrequentItemsets> per_class;
  /// Per k, the sum of the per-class runs' IterationStats over the classes
  /// that reached iteration k.
  std::vector<IterationStats> iterations;
  double total_seconds = 0.0;
};

/// The extension the paper announces in its conclusion: "extending the
/// algorithm in order to handle additional kinds of mining, e.g., relating
/// association rules to customer classes."
///
/// The class is a function of trans_id (logically SALES ⋈ CUSTOMERS on
/// trans_id), so the classes partition SALES exactly. Mine cuts the
/// transactions by class and runs SetmMiner — the one SETM pipeline, under
/// the shard coordinator — once per class, in ascending class order, with
/// this miner's SetmOptions (storage, count method, threads) and the
/// caller's MiningOptions. Minimum support is therefore evaluated per class
/// against that class's own transaction count (a 1% rule for a 100-
/// transaction class needs 1 transaction, not 469). The options' observer
/// sees each class's iterations in turn, ascending class order, k = 1, 2,
/// .. within a class; vetoing any of them cancels the whole mine.
///
///     ClassedSetmMiner miner(&db);
///     auto result = miner.Mine(txns, classes, options).value();
///     for (auto& [cls, itemsets] : result.per_class)
///       auto rules = GenerateRules(itemsets, options);
class ClassedSetmMiner {
 public:
  explicit ClassedSetmMiner(Database* db, SetmOptions setm_options = {})
      : db_(db), setm_options_(setm_options) {}

  /// Mines per-class frequent itemsets. Transactions not named in
  /// `classes` fall into CustomerClasses::kDefaultClass; a transaction id
  /// assigned twice is InvalidArgument; an observer veto is Cancelled.
  Result<ClassedMiningResult> Mine(const TransactionDb& transactions,
                                   const CustomerClasses& classes,
                                   const MiningOptions& options);

 private:
  Database* db_;
  SetmOptions setm_options_;
};

}  // namespace setm

#endif  // SETM_CORE_CLASSED_MINING_H_
