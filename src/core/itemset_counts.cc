#include "core/itemset_counts.h"

#include <algorithm>

#include "common/logging.h"

namespace setm {

namespace {

constexpr size_t kInitialSlots = 64;
/// Entry ids are uint32 and UINT32_MAX marks a free slot.
constexpr size_t kMaxEntries = UINT32_MAX;

/// Grows `v` to exactly `n` elements (a plain resize may allocate up to
/// twice that, which bytes() would not see).
template <typename T>
void GrowExactly(std::vector<T>* v, size_t n) {
  std::vector<T> grown;
  grown.reserve(n);
  grown.assign(v->begin(), v->end());
  grown.resize(n);
  v->swap(grown);
}

}  // namespace

ItemsetCounts::ItemsetCounts(size_t k) : k_(k) {
  SETM_CHECK(k >= 1);
  Reserve(kInitialSlots / 2);
}

size_t ItemsetCounts::MaxEntriesWithin(size_t k, size_t max_bytes) {
  size_t best = 0;
  for (size_t slots = kInitialSlots;; slots *= 2) {
    if (BytesFor(k, 0, slots) > max_bytes) break;
    const size_t fits = (max_bytes - BytesFor(k, 0, slots)) /
                        BytesFor(k, 1, 0);
    best = std::max(best, std::min(slots / 2, fits));
    // A larger index only leaves less room for entries.
    if (fits < slots / 2 || slots / 2 >= kMaxEntries) break;
  }
  return std::min(best, kMaxEntries);
}

size_t ItemsetCounts::Slot(const ItemId* items) const {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < k_; ++i) {
    h = (h ^ static_cast<uint32_t>(items[i])) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  const size_t mask = index_.size() - 1;
  size_t slot = static_cast<size_t>(h) & mask;
  // An inline loop: std::equal on ints becomes a libc memcmp call.
  const auto same = [&](uint32_t id) {
    const ItemId* key = &keys_[id * k_];
    for (size_t i = 0; i < k_; ++i) {
      if (key[i] != items[i]) return false;
    }
    return true;
  };
  while (index_[slot] != kEmpty && !same(index_[slot])) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void ItemsetCounts::Add(const ItemId* items, int64_t delta) {
  SETM_CHECK(TryAdd(items, delta, SIZE_MAX));
}

bool ItemsetCounts::TryAdd(const ItemId* items, int64_t delta,
                           size_t max_bytes) {
  SETM_DCHECK(delta > 0);
  size_t slot = Slot(items);
  if (index_[slot] != kEmpty) {
    counts_[index_[slot]] += delta;
    return true;
  }
  if (size_ == capacity_) {
    const size_t capacity =
        std::min(2 * capacity_, MaxEntriesWithin(k_, max_bytes));
    if (capacity <= size_) return false;
    Reserve(capacity);
    slot = Slot(items);
  }
  index_[slot] = static_cast<uint32_t>(size_);
  std::copy_n(items, k_, &keys_[size_ * k_]);
  counts_[size_] = delta;
  ++size_;
  return true;
}

void ItemsetCounts::Clear() {
  std::fill(index_.begin(), index_.end(), kEmpty);
  size_ = 0;
}

void ItemsetCounts::Reserve(size_t capacity) {
  GrowExactly(&keys_, capacity * k_);
  GrowExactly(&counts_, capacity);
  capacity_ = capacity;
  size_t slots = std::max(index_.size(), kInitialSlots);
  while (slots < 2 * capacity) slots *= 2;
  if (slots == index_.size()) return;
  index_.assign(slots, kEmpty);
  for (size_t id = 0; id < size_; ++id) {
    index_[Slot(&keys_[id * k_])] = static_cast<uint32_t>(id);
  }
}

std::vector<uint32_t> ItemsetCounts::SortedIds() const {
  std::vector<uint32_t> ids(size_);
  for (size_t id = 0; id < size_; ++id) ids[id] = static_cast<uint32_t>(id);
  // Keys are unique, so the order is total and needs no stable sort.
  const ItemId* keys = keys_.data();
  const size_t k = k_;
  std::sort(ids.begin(), ids.end(), [keys, k](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(keys + a * k, keys + a * k + k,
                                        keys + b * k, keys + b * k + k);
  });
  return ids;
}

}  // namespace setm
