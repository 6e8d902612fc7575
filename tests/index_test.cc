// Unit and property tests for the bulk-loaded, read-only B+-tree index.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "index/bplus_tree.h"
#include "storage/buffer_pool.h"

namespace setm {
namespace {

using Entry = BPlusTree::Entry;

class BPlusTreeTest : public testing::Test {
 protected:
  BPlusTreeTest() : backend_(&stats_), pool_(&backend_, 128) {}
  IoStats stats_;
  MemoryBackend backend_;
  BufferPool pool_;
};

// A sorted multiset of `n` distinct (key, value) entries whose keys repeat:
// keys are drawn from [0, key_range), payloads from a wide range.
std::vector<Entry> RandomEntries(Rng* rng, size_t n, uint64_t key_range) {
  std::set<std::pair<uint64_t, uint64_t>> unique;
  while (unique.size() < n) {
    unique.insert({rng->Uniform(key_range), rng->Uniform(1 << 20)});
  }
  std::vector<Entry> entries;
  entries.reserve(n);
  for (const auto& [k, v] : unique) entries.push_back({k, v});
  return entries;
}

bool ReferenceContains(const std::vector<Entry>& ref, const Entry& e) {
  return std::binary_search(ref.begin(), ref.end(), e);
}

TEST_F(BPlusTreeTest, ComposeKeyOrderPreserving) {
  EXPECT_LT(ComposeKey(1, 99), ComposeKey(2, 0));
  EXPECT_LT(ComposeKey(5, 1), ComposeKey(5, 2));
  EXPECT_EQ(KeyHigh(ComposeKey(7, 9)), 7u);
  EXPECT_EQ(KeyLow(ComposeKey(7, 9)), 9u);
}

TEST_F(BPlusTreeTest, BulkLoadEmptyInput) {
  auto tree = BPlusTree::BulkLoad(&pool_, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_entries(), 0u);
  EXPECT_EQ(tree->num_pages(), 1u);
  EXPECT_EQ(tree->height(), 1u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
  auto it = tree->Begin();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it.value().Valid());
  auto seek = tree->Seek(5);
  ASSERT_TRUE(seek.ok());
  EXPECT_FALSE(seek.value().Valid());
  auto contains = tree->Contains(5, 0);
  ASSERT_TRUE(contains.ok());
  EXPECT_FALSE(contains.value());
  std::vector<uint64_t> values;
  ASSERT_TRUE(tree->GetAll(5, &values).ok());
  EXPECT_TRUE(values.empty());
}

TEST_F(BPlusTreeTest, SeekFindsLowerBound) {
  std::vector<Entry> entries;
  for (uint64_t k = 0; k < 100; k += 10) entries.push_back({k, 0});
  auto tree = BPlusTree::BulkLoad(&pool_, entries);
  ASSERT_TRUE(tree.ok());
  auto it = tree->Seek(35);
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it.value().Valid());
  EXPECT_EQ(it.value().entry().key, 40u);
  // Seek past the end.
  auto end = tree->Seek(1000);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value().Valid());
}

// One key's payloads span several leaves; GetAll follows the leaf chain.
TEST_F(BPlusTreeTest, GetAllReturnsDuplicatePayloads) {
  std::vector<Entry> entries;
  entries.push_back({6, 99});
  for (uint64_t v = 0; v < 600; ++v) entries.push_back({7, v});
  entries.push_back({8, 99});
  auto tree = BPlusTree::BulkLoad(&pool_, entries);
  ASSERT_TRUE(tree.ok());
  EXPECT_GE(tree->num_pages(), 4u);  // three leaves and a root
  std::vector<uint64_t> values;
  ASSERT_TRUE(tree->GetAll(7, &values).ok());
  ASSERT_EQ(values.size(), 600u);
  for (uint64_t v = 0; v < 600; ++v) EXPECT_EQ(values[v], v);
}

TEST_F(BPlusTreeTest, NodeAccessesHitIoLedgerWithTinyPool) {
  // A pool smaller than the tree forces real page traffic on probes.
  BufferPool tiny(&backend_, 4);
  Rng rng(5);
  const std::vector<Entry> entries = RandomEntries(&rng, 20000, 2500);
  auto tree = BPlusTree::BulkLoad(&tiny, entries);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(tree->num_pages(), 64u);
  const uint64_t reads_before = stats_.page_reads;
  for (int i = 0; i < 200; ++i) {
    // Alternate stored entries (hits) with random pairs (mostly misses).
    const Entry probe = i % 2 == 0
                            ? entries[rng.Uniform(entries.size())]
                            : Entry{rng.Uniform(2600), rng.Uniform(1 << 20)};
    auto found = tree->Contains(probe.key, probe.value);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), ReferenceContains(entries, probe));
  }
  EXPECT_GT(stats_.page_reads, reads_before + 150);
}

// Property sweep: a tree bulk-loaded from a random sorted multiset keeps
// its invariants and answers every probe as the sorted reference does.
struct FuzzCase {
  uint64_t seed;
  size_t num_entries;  // 255 entries fill one leaf
};

class BPlusTreeFuzzTest : public testing::TestWithParam<FuzzCase> {};

TEST_P(BPlusTreeFuzzTest, MatchesSortedReference) {
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 256);
  Rng rng(GetParam().seed);
  const size_t n = GetParam().num_entries;
  const uint64_t key_range = std::max<uint64_t>(1, n / 8);
  const std::vector<Entry> reference = RandomEntries(&rng, n, key_range);
  auto tree_or = BPlusTree::BulkLoad(&pool, reference);
  ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
  const BPlusTree& tree = tree_or.value();
  EXPECT_EQ(tree.num_entries(), n);
  EXPECT_EQ(tree.height() == 1, n <= 255);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  // Full iteration.
  auto it_or = tree.Begin();
  ASSERT_TRUE(it_or.ok());
  auto it = std::move(it_or).value();
  size_t i = 0;
  while (it.Valid()) {
    ASSERT_LT(i, n);
    EXPECT_EQ(it.entry(), reference[i]);
    ++i;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(i, n);

  for (int probe = 0; probe < 300; ++probe) {
    // Contains: a stored entry, then a random pair (usually a miss).
    const Entry hit = reference[rng.Uniform(n)];
    auto found = tree.Contains(hit.key, hit.value);
    ASSERT_TRUE(found.ok());
    EXPECT_TRUE(found.value());
    const Entry other{rng.Uniform(key_range + 2), rng.Uniform(1 << 20)};
    found = tree.Contains(other.key, other.value);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), ReferenceContains(reference, other));

    // Seek lands on the lower bound of (key, 0).
    const uint64_t key = rng.Uniform(key_range + 2);
    auto seek = tree.Seek(key);
    ASSERT_TRUE(seek.ok());
    const auto lower = std::lower_bound(reference.begin(), reference.end(),
                                        Entry{key, 0});
    ASSERT_EQ(seek.value().Valid(), lower != reference.end()) << key;
    if (lower != reference.end()) {
      EXPECT_EQ(seek.value().entry(), *lower);
    }

    // GetAll returns that key's payloads in order.
    std::vector<uint64_t> values;
    ASSERT_TRUE(tree.GetAll(key, &values).ok());
    std::vector<uint64_t> expected;
    for (auto e = lower; e != reference.end() && e->key == key; ++e) {
      expected.push_back(e->value);
    }
    EXPECT_EQ(values, expected) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BPlusTreeFuzzTest,
    testing::Values(FuzzCase{1, 1}, FuzzCase{2, 255}, FuzzCase{3, 256},
                    FuzzCase{5, 3000}, FuzzCase{8, 12000},
                    FuzzCase{13, 60000}),
    [](const testing::TestParamInfo<FuzzCase>& param_info) {
      return "Seed" + std::to_string(param_info.param.seed) + "N" +
             std::to_string(param_info.param.num_entries);
    });

}  // namespace
}  // namespace setm
