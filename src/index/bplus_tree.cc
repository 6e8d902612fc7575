#include "index/bplus_tree.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace setm {

namespace {

// Node layouts --------------------------------------------------------------
//
// Both node kinds fit exactly one page:
//   leaf:     [NodeHeader | Entry entries[kLeafCap]]
//   internal: [NodeHeader | PageId children[kInternalCap+1] | padding
//                         | Entry separators[kInternalCap]]
// (the padding aligns the separators for Entry's uint64_t fields).
//
// Internal separators are full (key, payload) pairs: the tree orders by the
// pair, which keeps duplicate keys exact instead of "mostly sorted".
// children[i] covers pairs < separators[i]; children[i+1] covers >= .

struct NodeHeader {
  uint16_t is_leaf;
  uint16_t num_keys;
  PageId next_leaf;  // leaves only; kInvalidPageId elsewhere
};

constexpr size_t kHeaderSize = sizeof(NodeHeader);
constexpr size_t kLeafCap = (kPageSize - kHeaderSize) / sizeof(BPlusTree::Entry);

static_assert(kHeaderSize % alignof(BPlusTree::Entry) == 0,
              "leaf entries must be aligned");

// Internal separators start at the first Entry-aligned offset after the
// children array.
constexpr size_t SepOffset(size_t cap) {
  const size_t align = alignof(BPlusTree::Entry);
  return (kHeaderSize + (cap + 1) * sizeof(PageId) + align - 1) / align *
         align;
}

// The largest separator count whose node (padding included) fits a page.
constexpr size_t InternalCap() {
  size_t cap = (kPageSize - kHeaderSize - sizeof(PageId)) /
               (sizeof(BPlusTree::Entry) + sizeof(PageId));
  while (SepOffset(cap) + cap * sizeof(BPlusTree::Entry) > kPageSize) --cap;
  return cap;
}

constexpr size_t kInternalCap = InternalCap();

static_assert(kLeafCap >= 4, "page too small");
static_assert(kInternalCap >= 4, "page too small");

NodeHeader* Header(Page* p) { return p->As<NodeHeader>(); }
const NodeHeader* Header(const Page* p) { return p->As<NodeHeader>(); }

BPlusTree::Entry* LeafEntries(Page* p) {
  return p->As<BPlusTree::Entry>(kHeaderSize);
}
const BPlusTree::Entry* LeafEntries(const Page* p) {
  return p->As<BPlusTree::Entry>(kHeaderSize);
}

PageId* Children(Page* p) { return p->As<PageId>(kHeaderSize); }
const PageId* Children(const Page* p) { return p->As<PageId>(kHeaderSize); }

constexpr size_t kSepOffset = SepOffset(kInternalCap);

BPlusTree::Entry* Separators(Page* p) {
  return p->As<BPlusTree::Entry>(kSepOffset);
}
const BPlusTree::Entry* Separators(const Page* p) {
  return p->As<BPlusTree::Entry>(kSepOffset);
}

void InitLeaf(Page* p) {
  p->Clear();
  NodeHeader* h = Header(p);
  h->is_leaf = 1;
  h->num_keys = 0;
  h->next_leaf = kInvalidPageId;
}

void InitInternal(Page* p) {
  p->Clear();
  NodeHeader* h = Header(p);
  h->is_leaf = 0;
  h->num_keys = 0;
  h->next_leaf = kInvalidPageId;
}

// First position in [0, n) whose entry is >= e.
uint16_t LowerBound(const BPlusTree::Entry* entries, uint16_t n,
                    const BPlusTree::Entry& e) {
  return static_cast<uint16_t>(
      std::lower_bound(entries, entries + n, e) - entries);
}

// Child index to follow for pair e: number of separators <= e.
uint16_t ChildIndex(const Page* p, const BPlusTree::Entry& e) {
  const NodeHeader* h = Header(p);
  const BPlusTree::Entry* seps = Separators(p);
  return static_cast<uint16_t>(
      std::upper_bound(seps, seps + h->num_keys, e) - seps);
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<BPlusTree> BPlusTree::BulkLoad(
    BufferPool* pool, const std::vector<Entry>& sorted_entries) {
  SETM_DCHECK(std::is_sorted(sorted_entries.begin(), sorted_entries.end()));
  BPlusTree tree(pool);
  if (sorted_entries.empty()) {
    // The empty tree is a single empty root leaf.
    auto guard_or = pool->NewPage();
    if (!guard_or.ok()) return guard_or.status();
    InitLeaf(guard_or.value().page());
    guard_or.value().MarkDirty();
    tree.root_ = guard_or.value().id();
    tree.num_pages_ = 1;
    return tree;
  }

  // Level 0: pack leaves left to right.
  struct NodeRef {
    PageId id;
    Entry first;  // smallest pair in the subtree
  };
  std::vector<NodeRef> level;
  PageId prev_leaf = kInvalidPageId;
  size_t pos = 0;
  while (pos < sorted_entries.size()) {
    auto guard_or = pool->NewPage();
    if (!guard_or.ok()) return guard_or.status();
    PageGuard guard = std::move(guard_or).value();
    InitLeaf(guard.page());
    ++tree.num_pages_;
    const size_t n = std::min(kLeafCap, sorted_entries.size() - pos);
    std::memcpy(LeafEntries(guard.page()), sorted_entries.data() + pos,
                n * sizeof(Entry));
    Header(guard.page())->num_keys = static_cast<uint16_t>(n);
    guard.MarkDirty();
    if (prev_leaf != kInvalidPageId) {
      auto prev_or = pool->FetchPage(prev_leaf);
      if (!prev_or.ok()) return prev_or.status();
      Header(prev_or.value().page())->next_leaf = guard.id();
      prev_or.value().MarkDirty();
    }
    level.push_back(NodeRef{guard.id(), sorted_entries[pos]});
    prev_leaf = guard.id();
    pos += n;
  }

  // Build internal levels until a single root remains.
  while (level.size() > 1) {
    std::vector<NodeRef> next;
    size_t i = 0;
    while (i < level.size()) {
      auto guard_or = pool->NewPage();
      if (!guard_or.ok()) return guard_or.status();
      PageGuard guard = std::move(guard_or).value();
      InitInternal(guard.page());
      ++tree.num_pages_;
      // Fan-in: up to kInternalCap+1 children per node, but never leave a
      // single orphan child for the last node.
      size_t take = std::min(kInternalCap + 1, level.size() - i);
      if (level.size() - i - take == 1) --take;  // rebalance the tail
      NodeHeader* h = Header(guard.page());
      PageId* children = Children(guard.page());
      Entry* seps = Separators(guard.page());
      for (size_t j = 0; j < take; ++j) {
        children[j] = level[i + j].id;
        if (j > 0) seps[j - 1] = level[i + j].first;
      }
      h->num_keys = static_cast<uint16_t>(take - 1);
      guard.MarkDirty();
      next.push_back(NodeRef{guard.id(), level[i].first});
      i += take;
    }
    level = std::move(next);
    ++tree.height_;
  }
  tree.root_ = level[0].id;
  tree.num_entries_ = sorted_entries.size();
  return tree;
}

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

Result<PageId> BPlusTree::FindLeaf(uint64_t key, uint64_t value) const {
  const Entry e{key, value};
  PageId node = root_;
  while (true) {
    auto guard_or = pool_->FetchPage(node);
    if (!guard_or.ok()) return guard_or.status();
    const Page* p = guard_or.value().page();
    if (Header(p)->is_leaf) return node;
    node = Children(p)[ChildIndex(p, e)];
  }
}

Result<bool> BPlusTree::Contains(uint64_t key, uint64_t value) const {
  auto leaf_or = FindLeaf(key, value);
  if (!leaf_or.ok()) return leaf_or.status();
  auto guard_or = pool_->FetchPage(leaf_or.value());
  if (!guard_or.ok()) return guard_or.status();
  const Page* p = guard_or.value().page();
  const NodeHeader* h = Header(p);
  const Entry* entries = LeafEntries(p);
  const Entry e{key, value};
  uint16_t pos = LowerBound(entries, h->num_keys, e);
  return pos < h->num_keys && entries[pos] == e;
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

Status BPlusTree::Iterator::LoadCurrent() {
  valid_ = false;
  while (leaf_ != kInvalidPageId) {
    auto guard_or = tree_->pool_->FetchPage(leaf_);
    if (!guard_or.ok()) return guard_or.status();
    const Page* p = guard_or.value().page();
    const NodeHeader* h = Header(p);
    if (slot_ < h->num_keys) {
      entry_ = LeafEntries(p)[slot_];
      valid_ = true;
      return Status::OK();
    }
    leaf_ = h->next_leaf;  // past this leaf's last entry
    slot_ = 0;
  }
  return Status::OK();
}

Status BPlusTree::Iterator::Next() {
  SETM_DCHECK(valid_);
  ++slot_;
  return LoadCurrent();
}

Result<BPlusTree::Iterator> BPlusTree::Seek(uint64_t key) const {
  auto leaf_or = FindLeaf(key, 0);
  if (!leaf_or.ok()) return leaf_or.status();
  auto guard_or = pool_->FetchPage(leaf_or.value());
  if (!guard_or.ok()) return guard_or.status();
  const Page* p = guard_or.value().page();
  const NodeHeader* h = Header(p);
  const Entry e{key, 0};
  uint16_t pos = LowerBound(LeafEntries(p), h->num_keys, e);
  Iterator it(this, leaf_or.value(), pos);
  SETM_RETURN_IF_ERROR(it.LoadCurrent());
  return it;
}

Result<BPlusTree::Iterator> BPlusTree::Begin() const { return Seek(0); }

Status BPlusTree::GetAll(uint64_t key, std::vector<uint64_t>* values) const {
  auto it_or = Seek(key);
  if (!it_or.ok()) return it_or.status();
  Iterator it = std::move(it_or).value();
  while (it.Valid() && it.entry().key == key) {
    values->push_back(it.entry().value);
    SETM_RETURN_IF_ERROR(it.Next());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Invariant checking (test hook)
// ---------------------------------------------------------------------------

Status BPlusTree::CheckInvariants() const {
  // Recursive structural check with (lo, hi) pair bounds.
  struct Checker {
    BufferPool* pool;
    uint64_t leaf_entries = 0;

    Status Check(PageId node, const Entry* lo, const Entry* hi, int depth,
                 int* leaf_depth) {
      auto guard_or = pool->FetchPage(node);
      if (!guard_or.ok()) return guard_or.status();
      const Page* p = guard_or.value().page();
      const NodeHeader* h = Header(p);
      if (h->is_leaf) {
        if (*leaf_depth == -1) *leaf_depth = depth;
        if (*leaf_depth != depth) {
          return Status::Corruption("leaves at differing depths");
        }
        const Entry* entries = LeafEntries(p);
        for (uint16_t i = 0; i < h->num_keys; ++i) {
          if (i > 0 && !(entries[i - 1] < entries[i])) {
            return Status::Corruption("leaf entries out of order");
          }
          if (lo != nullptr && entries[i] < *lo) {
            return Status::Corruption("leaf entry below subtree bound");
          }
          if (hi != nullptr && !(entries[i] < *hi)) {
            return Status::Corruption("leaf entry above subtree bound");
          }
        }
        leaf_entries += h->num_keys;
        return Status::OK();
      }
      const Entry* seps = Separators(p);
      const PageId* children = Children(p);
      if (h->num_keys == 0) {
        return Status::Corruption("internal node without separators");
      }
      for (uint16_t i = 0; i < h->num_keys; ++i) {
        if (i > 0 && !(seps[i - 1] < seps[i])) {
          return Status::Corruption("separators out of order");
        }
      }
      for (uint16_t i = 0; i <= h->num_keys; ++i) {
        const Entry* child_lo = i == 0 ? lo : &seps[i - 1];
        const Entry* child_hi = i == h->num_keys ? hi : &seps[i];
        SETM_RETURN_IF_ERROR(
            Check(children[i], child_lo, child_hi, depth + 1, leaf_depth));
      }
      return Status::OK();
    }
  };

  Checker checker{pool_};
  int leaf_depth = -1;
  SETM_RETURN_IF_ERROR(
      checker.Check(root_, nullptr, nullptr, 0, &leaf_depth));
  if (checker.leaf_entries != num_entries_) {
    return Status::Corruption("entry count mismatch: tree says " +
                              std::to_string(num_entries_) + ", found " +
                              std::to_string(checker.leaf_entries));
  }
  return Status::OK();
}

}  // namespace setm
