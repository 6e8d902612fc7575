#ifndef SETM_CORE_ITEMSET_COUNTS_H_
#define SETM_CORE_ITEMSET_COUNTS_H_

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace setm {

/// Support counts of k-itemsets, keyed by the k items packed side by side
/// (open addressing, linear probing). The SETM path's one itemset map: the
/// kHash local count, the C_k filter probe and the coordinator's merge of
/// partial counts. A key is read straight out of an R_k row (its columns
/// 1..k), so probing allocates nothing.
///
/// Iteration order is slot order: deterministic for a given insertion
/// sequence, but not sorted.
class ItemsetCounts {
 public:
  /// A map of `k`-item keys (k >= 1).
  explicit ItemsetCounts(size_t k);

  size_t k() const { return k_; }
  /// Number of distinct itemsets.
  size_t size() const { return size_; }

  /// Adds `delta` (> 0) to the count of `items` (k ints), inserting it.
  void Add(const ItemId* items, int64_t delta);

  /// The count of `items` (k ints); 0 when absent.
  int64_t Count(const ItemId* items) const;

  /// Calls `fn(const ItemId* items, int64_t count)` for every itemset.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t slot = 0; slot < counts_.size(); ++slot) {
      if (counts_[slot] != 0) fn(&keys_[slot * k_], counts_[slot]);
    }
  }

  /// Appends every itemset counted at least `min_count` to `out`.
  void AppendAtLeast(int64_t min_count, std::vector<PatternCount>* out) const;

 private:
  size_t Slot(const ItemId* items) const;
  void Grow();

  size_t k_;
  size_t size_ = 0;
  size_t mask_;
  std::vector<ItemId> keys_;    ///< k ints per slot
  std::vector<int64_t> counts_; ///< 0 marks an empty slot
};

}  // namespace setm

#endif  // SETM_CORE_ITEMSET_COUNTS_H_
