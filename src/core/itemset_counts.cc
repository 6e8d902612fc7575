#include "core/itemset_counts.h"

#include <algorithm>

#include "common/logging.h"

namespace setm {

namespace {

constexpr size_t kInitialSlots = 64;

bool SameItems(const ItemId* a, const ItemId* b, size_t k) {
  return std::equal(a, a + k, b);
}

}  // namespace

ItemsetCounts::ItemsetCounts(size_t k)
    : k_(k),
      mask_(kInitialSlots - 1),
      keys_(kInitialSlots * k),
      counts_(kInitialSlots, 0) {
  SETM_CHECK(k >= 1);
}

size_t ItemsetCounts::Slot(const ItemId* items) const {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < k_; ++i) {
    h = (h ^ static_cast<uint32_t>(items[i])) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  size_t slot = static_cast<size_t>(h) & mask_;
  while (counts_[slot] != 0 && !SameItems(&keys_[slot * k_], items, k_)) {
    slot = (slot + 1) & mask_;
  }
  return slot;
}

void ItemsetCounts::Add(const ItemId* items, int64_t delta) {
  SETM_DCHECK(delta > 0);
  size_t slot = Slot(items);
  if (counts_[slot] == 0) {
    // Keep the load at or below one half.
    if (2 * (size_ + 1) > counts_.size()) {
      Grow();
      slot = Slot(items);
    }
    std::copy_n(items, k_, &keys_[slot * k_]);
    ++size_;
  }
  counts_[slot] += delta;
}

int64_t ItemsetCounts::Count(const ItemId* items) const {
  return counts_[Slot(items)];
}

void ItemsetCounts::Grow() {
  std::vector<ItemId> keys = std::move(keys_);
  std::vector<int64_t> counts = std::move(counts_);
  mask_ = 2 * counts.size() - 1;
  keys_.assign((mask_ + 1) * k_, 0);
  counts_.assign(mask_ + 1, 0);
  for (size_t old = 0; old < counts.size(); ++old) {
    if (counts[old] == 0) continue;
    const size_t slot = Slot(&keys[old * k_]);
    std::copy_n(&keys[old * k_], k_, &keys_[slot * k_]);
    counts_[slot] = counts[old];
  }
}

void ItemsetCounts::AppendAtLeast(int64_t min_count,
                                  std::vector<PatternCount>* out) const {
  ForEach([&](const ItemId* items, int64_t count) {
    if (count >= min_count) {
      out->push_back(PatternCount{std::vector<ItemId>(items, items + k_),
                                  count});
    }
  });
}

}  // namespace setm
