#ifndef SETM_INDEX_BPLUS_TREE_H_
#define SETM_INDEX_BPLUS_TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace setm {

/// Encodes the composite key (hi, lo) into one order-preserving uint64.
/// The nested-loop mining strategy indexes SALES on (item, trans_id) and on
/// (trans_id); items and transaction ids are non-negative 32-bit values, so
/// (hi << 32) | lo sorts exactly like the pair.
inline uint64_t ComposeKey(uint32_t hi, uint32_t lo) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}
/// High 32 bits of a composite key.
inline uint32_t KeyHigh(uint64_t key) { return static_cast<uint32_t>(key >> 32); }
/// Low 32 bits of a composite key.
inline uint32_t KeyLow(uint64_t key) { return static_cast<uint32_t>(key); }

/// A disk-resident B+-tree with fixed-size 64-bit keys and 64-bit payloads.
///
/// Entries are ordered by the (key, payload) pair, which makes duplicate
/// keys well-defined (the (trans_id) index stores one entry per SALES row).
/// Leaves are chained for range scans. Nodes occupy exactly one 4 KiB page,
/// so every node access is one page access in the IoStats ledger — the
/// measurements behind the Section 3.2 analysis.
///
/// A tree is built once by BulkLoad and is read-only afterwards: the
/// nested-loop strategy indexes SALES up front and then only probes.
class BPlusTree {
 public:
  /// An entry is a (key, payload) pair.
  struct Entry {
    uint64_t key;
    uint64_t value;
    bool operator==(const Entry& o) const {
      return key == o.key && value == o.value;
    }
    bool operator<(const Entry& o) const {
      return key < o.key || (key == o.key && value < o.value);
    }
  };

  /// Builds a tree, with nodes allocated from `pool`, from entries sorted
  /// by (key, value); keys may repeat. Leaves are filled to a fill factor of
  /// ~100% and written once. Empty input yields one empty root leaf.
  static Result<BPlusTree> BulkLoad(BufferPool* pool,
                                    const std::vector<Entry>& sorted_entries);

  BPlusTree(BPlusTree&&) = default;
  BPlusTree& operator=(BPlusTree&&) = default;

  /// True iff the exact (key, value) entry exists.
  Result<bool> Contains(uint64_t key, uint64_t value) const;

  /// Number of entries.
  uint64_t num_entries() const { return num_entries_; }

  /// Height of the tree (1 = root is a leaf).
  uint32_t height() const { return height_; }

  /// Pages allocated for nodes (leaf + internal), the ||index|| of the
  /// analytical model.
  uint64_t num_pages() const { return num_pages_; }

  /// Forward scanner over entries with key in [lower, upper].
  ///
  ///     auto it = tree.Seek(ComposeKey(item, 0));
  ///     while (it.Valid() && KeyHigh(it.entry().key) == item) {
  ///       ...; if (!it.Next().ok()) break;
  ///     }
  class Iterator {
   public:
    /// True when positioned on an entry.
    bool Valid() const { return valid_; }
    /// Current entry; requires Valid().
    const Entry& entry() const { return entry_; }
    /// Advances; Valid() turns false past the last entry.
    Status Next();

   private:
    friend class BPlusTree;
    Iterator(const BPlusTree* tree, PageId leaf, uint16_t slot)
        : tree_(tree), leaf_(leaf), slot_(slot) {}
    Status LoadCurrent();

    const BPlusTree* tree_;
    PageId leaf_;
    uint16_t slot_;
    Entry entry_{0, 0};
    bool valid_ = false;
  };

  /// Iterator positioned at the first entry with key >= `key`
  /// (and among equal keys, the smallest payload).
  Result<Iterator> Seek(uint64_t key) const;

  /// Iterator at the smallest entry.
  Result<Iterator> Begin() const;

  /// Collects all payloads whose key equals `key` (convenience for probes).
  Status GetAll(uint64_t key, std::vector<uint64_t>* values) const;

  /// Validates structural invariants (ordering within and across nodes,
  /// key separation at internal nodes, leaf chain consistency). Test hook.
  Status CheckInvariants() const;

 private:
  explicit BPlusTree(BufferPool* pool) : pool_(pool) {}

  Result<PageId> FindLeaf(uint64_t key, uint64_t value) const;

  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  uint64_t num_pages_ = 0;
  uint32_t height_ = 1;
};

}  // namespace setm

#endif  // SETM_INDEX_BPLUS_TREE_H_
