#include "core/classed_mining.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "common/timer.h"

namespace setm {

Result<ClassedMiningResult> ClassedSetmMiner::Mine(
    const TransactionDb& transactions, const CustomerClasses& classes,
    const MiningOptions& options) {
  SETM_RETURN_IF_ERROR(ValidateTransactions(transactions));
  WallTimer total_timer;

  // Resolve the CUSTOMERS relation into a lookup; duplicates are an error.
  std::unordered_map<TransactionId, ClassId> class_of;
  for (const auto& [tid, cls] : classes.assignments) {
    if (!class_of.emplace(tid, cls).second) {
      return Status::InvalidArgument("transaction " + std::to_string(tid) +
                                     " assigned to two classes");
    }
  }

  // The class is a function of trans_id, so the classes partition SALES.
  std::map<ClassId, TransactionDb> slices;
  for (const Transaction& t : transactions) {
    auto it = class_of.find(t.id);
    slices[it == class_of.end() ? CustomerClasses::kDefaultClass : it->second]
        .push_back(t);
  }

  ClassedMiningResult result;
  SetmMiner miner(db_, setm_options_);
  for (auto& [cls, slice] : slices) {
    auto mined = miner.Mine(slice, options);
    if (!mined.ok()) return mined.status();
    slice = TransactionDb();  // mined; release before the next class
    for (const IterationStats& stats : mined.value().iterations) {
      while (result.iterations.size() < stats.k) {
        result.iterations.emplace_back();
        result.iterations.back().k = result.iterations.size();
      }
      IterationStats& sum = result.iterations[stats.k - 1];
      sum.r_prime_rows += stats.r_prime_rows;
      sum.r_rows += stats.r_rows;
      sum.r_bytes += stats.r_bytes;
      sum.r_pages += stats.r_pages;
      sum.c_size += stats.c_size;
      sum.seconds += stats.seconds;
    }
    result.per_class.emplace(cls, std::move(mined.value().itemsets));
  }
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace setm
