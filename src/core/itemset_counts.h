#ifndef SETM_CORE_ITEMSET_COUNTS_H_
#define SETM_CORE_ITEMSET_COUNTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace setm {

/// Support counts of k-int keys packed side by side: the table of the
/// hashed C_k count (core/setm_pipeline.h BudgetedCount), whose keys are
/// (C_k id, C_1 rank). A key is read in place, so probing allocates
/// nothing.
///
/// Layout: the entries are stored densely, in insertion order, as k keys
/// in one array and an int64 count in another. A power-of-two index of
/// uint32 entry ids (linear probing, load at most one half) finds them.
/// Entry capacity and index grow independently, so a table under a byte
/// budget fills it: at 1 MiB it holds 32,768 entries for k = 3 or 4.
class ItemsetCounts {
 public:
  /// A map of `k`-item keys (k >= 1).
  explicit ItemsetCounts(size_t k);

  size_t k() const { return k_; }
  /// Number of distinct itemsets.
  size_t size() const { return size_; }

  /// Bytes allocated for the index and the entries (k keys and a count per
  /// entry of capacity). Growing raises it; Clear() keeps it.
  size_t bytes() const { return BytesFor(k_, capacity_, index_.size()); }

  /// The most entries a table of `k`-itemsets holds within `max_bytes`,
  /// index included; never more than uint32 entry ids can name.
  static size_t MaxEntriesWithin(size_t k, size_t max_bytes);

  /// Adds `delta` (> 0) to the count of `items` (k ints), inserting it.
  void Add(const ItemId* items, int64_t delta);

  /// Add(), unless `items` is absent and inserting it would grow bytes()
  /// past `max_bytes` or need more entries than MaxEntriesWithin allows:
  /// then the map is unchanged and the result is false. An empty table
  /// always takes one itemset.
  bool TryAdd(const ItemId* items, int64_t delta, size_t max_bytes);

  /// Removes every itemset, keeping the allocation.
  void Clear();

  /// The count of `items` (k ints); 0 when absent.
  int64_t Count(const ItemId* items) const {
    const uint32_t id = index_[Slot(items)];
    return id == kEmpty ? 0 : counts_[id];
  }

  /// Calls `fn(const ItemId* items, int64_t count)` for every itemset, in
  /// ascending item order.
  template <typename Fn>
  void ForEachSorted(Fn fn) const {
    for (uint32_t id : SortedIds()) fn(&keys_[id * k_], counts_[id]);
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  static size_t BytesFor(size_t k, size_t capacity, size_t slots) {
    return slots * sizeof(uint32_t) +
           capacity * (k * sizeof(ItemId) + sizeof(int64_t));
  }
  /// The index slot holding `items`, or the empty slot it would take.
  size_t Slot(const ItemId* items) const;
  /// The entry ids, ordered on their keys.
  std::vector<uint32_t> SortedIds() const;
  /// Raises the entry capacity to `capacity`, re-indexing when the index
  /// would pass load one half.
  void Reserve(size_t capacity);

  size_t k_;
  size_t size_ = 0;      ///< entries in use: ids 0..size_-1
  size_t capacity_ = 0;  ///< entries allocated
  std::vector<uint32_t> index_;  ///< entry id per slot; kEmpty when free
  std::vector<ItemId> keys_;     ///< k ints per entry
  std::vector<int64_t> counts_;  ///< one per entry
};

}  // namespace setm

#endif  // SETM_CORE_ITEMSET_COUNTS_H_
