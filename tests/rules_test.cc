// Tests for rule generation (Section 5) and the FrequentItemsets container.

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/paper_example.h"
#include "core/rules.h"
#include "datagen/quest_generator.h"

namespace setm {
namespace {

FrequentItemsets MineExample() {
  BruteForceMiner miner;
  auto result =
      miner.Mine(PaperExampleTransactions(), PaperExampleOptions());
  EXPECT_TRUE(result.ok());
  return std::move(result).value().itemsets;
}

// --------------------------------------------------------------------------
// FrequentItemsets container
// --------------------------------------------------------------------------

TEST(FrequentItemsetsTest, AddAndLookup) {
  FrequentItemsets sets;
  sets.Add({1, 2}, 10);
  sets.Add({3}, 20);
  EXPECT_EQ(sets.CountOf({1, 2}), 10);
  EXPECT_EQ(sets.CountOf({3}), 20);
  EXPECT_EQ(sets.CountOf({9}), 0);
  EXPECT_EQ(sets.MaxSize(), 2u);
  EXPECT_EQ(sets.TotalPatterns(), 2u);
  EXPECT_EQ(sets.OfSize(1).size(), 1u);
  EXPECT_EQ(sets.OfSize(5).size(), 0u);
  EXPECT_EQ(sets.OfSize(0).size(), 0u);
}

TEST(FrequentItemsetsTest, NormalizeSortsAndTrims) {
  FrequentItemsets a, b;
  a.Add({2}, 1);
  a.Add({1}, 1);
  b.Add({1}, 1);
  b.Add({2}, 1);
  a.Normalize();
  b.Normalize();
  EXPECT_TRUE(a == b);
}

TEST(FrequentItemsetsTest, ItemsetKeyDistinguishesSets) {
  EXPECT_NE(ItemsetKey({1, 2}), ItemsetKey({2, 1}));
  EXPECT_NE(ItemsetKey({1}), ItemsetKey({1, 0}));
  EXPECT_EQ(ItemsetKey({5, 7}), ItemsetKey({5, 7}));
}

TEST(ResolveMinSupportTest, FractionRoundsUp) {
  MiningOptions options;
  options.min_support = 0.30;
  EXPECT_EQ(ResolveMinSupportCount(options, 10), 3);
  options.min_support = 0.25;
  EXPECT_EQ(ResolveMinSupportCount(options, 10), 3);  // ceil(2.5)
  options.min_support = 0.0;
  EXPECT_EQ(ResolveMinSupportCount(options, 10), 1);  // floor of 1
  options.min_support = 0.001;
  EXPECT_EQ(ResolveMinSupportCount(options, 46873), 47);
}

TEST(ResolveMinSupportTest, AbsoluteCountWins) {
  MiningOptions options;
  options.min_support = 0.9;
  options.min_support_count = 5;
  EXPECT_EQ(ResolveMinSupportCount(options, 1000), 5);
}

// --------------------------------------------------------------------------
// Rule generation
// --------------------------------------------------------------------------

TEST(RulesTest, EveryRuleMeetsConfidenceAndSupport) {
  FrequentItemsets sets = MineExample();
  MiningOptions options = PaperExampleOptions();
  auto rules = GenerateRules(sets, options).value();
  ASSERT_FALSE(rules.empty());
  for (const auto& r : rules) {
    EXPECT_GE(r.confidence + 1e-12, options.min_confidence);
    EXPECT_GE(r.support + 1e-12, options.min_support);
    // Confidence recomputes from the count relations.
    std::vector<ItemId> full = r.antecedent;
    full.insert(full.end(), r.consequent.begin(), r.consequent.end());
    std::sort(full.begin(), full.end());
    const double expect = static_cast<double>(sets.CountOf(full)) /
                          static_cast<double>(sets.CountOf(r.antecedent));
    EXPECT_NEAR(r.confidence, expect, 1e-12);
  }
}

TEST(RulesTest, ZeroConfidenceKeepsAllSubsetRules) {
  FrequentItemsets sets = MineExample();
  MiningOptions options = PaperExampleOptions();
  options.min_confidence = 0.0;
  auto rules = GenerateRules(sets, options).value();
  // Every frequent k-pattern (k>=2) yields k single-consequent rules:
  // 6 pairs x 2 + 1 triple x 3 = 15.
  EXPECT_EQ(rules.size(), 15u);
}

TEST(RulesTest, AnySubsetModeIncludesLargerConsequents) {
  FrequentItemsets sets = MineExample();
  MiningOptions options = PaperExampleOptions();
  options.min_confidence = 0.0;
  auto rules = GenerateRules(sets, options, RuleMode::kAnySubset).value();
  // Pairs: 2 each (antecedent size 1). Triple: C(3,1)+C(3,2) = 6.
  EXPECT_EQ(rules.size(), 6u * 2 + 6);
  bool found_wide = false;
  for (const auto& r : rules) {
    if (r.antecedent.size() == 1 && r.consequent.size() == 2) {
      found_wide = true;
      break;
    }
  }
  EXPECT_TRUE(found_wide);
}

TEST(RulesTest, RulesAreSortedAndDeterministic) {
  FrequentItemsets sets = MineExample();
  auto a = GenerateRules(sets, PaperExampleOptions()).value();
  auto b = GenerateRules(sets, PaperExampleOptions()).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);
  for (size_t i = 1; i < a.size(); ++i) {
    const size_t prev = a[i - 1].antecedent.size() + a[i - 1].consequent.size();
    const size_t cur = a[i].antecedent.size() + a[i].consequent.size();
    EXPECT_LE(prev, cur);
  }
}

TEST(RulesTest, EmptyItemsetsYieldNoRules) {
  FrequentItemsets sets;
  sets.num_transactions = 10;
  EXPECT_TRUE(GenerateRules(sets, MiningOptions{}).value().empty());
}

TEST(RulesTest, SingletonsOnlyYieldNoRules) {
  FrequentItemsets sets;
  sets.num_transactions = 10;
  sets.Add({1}, 5);
  sets.Add({2}, 6);
  EXPECT_TRUE(GenerateRules(sets, MiningOptions{}).value().empty());
}

TEST(RulesTest, ConfidenceOneHundredPercentFormatting) {
  AssociationRule rule;
  rule.antecedent = {3, 4};
  rule.consequent = {5};
  rule.confidence = 1.0;
  rule.support = 0.30;
  EXPECT_EQ(FormatRule(rule, PaperItemName), "D E ==> F, [100.0%, 30.0%]");
  // Default formatter prints numeric ids.
  EXPECT_EQ(FormatRule(rule), "3 4 ==> 5, [100.0%, 30.0%]");
}

// Property sweep: on random data, rules from any-subset mode are a superset
// of single-consequent mode, and all metrics check out.
class RulesPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RulesPropertyTest, ModesAreConsistent) {
  QuestOptions gen;
  gen.seed = GetParam();
  gen.num_transactions = 200;
  gen.avg_transaction_size = 5;
  gen.num_items = 12;
  TransactionDb txns = QuestGenerator(gen).Generate();
  MiningOptions options;
  options.min_support = 0.05;
  options.min_confidence = 0.6;
  BruteForceMiner miner;
  auto result = miner.Mine(txns, options);
  ASSERT_TRUE(result.ok());

  auto narrow = GenerateRules(result.value().itemsets, options).value();
  auto wide =
      GenerateRules(result.value().itemsets, options, RuleMode::kAnySubset)
          .value();
  EXPECT_GE(wide.size(), narrow.size());
  // Every single-consequent rule also appears in any-subset mode.
  for (const auto& r : narrow) {
    bool found = false;
    for (const auto& w : wide) {
      if (w == r) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

// --------------------------------------------------------------------------
// Observer hooks and cooperative cancellation
// --------------------------------------------------------------------------

/// Counts callbacks and optionally vetoes after a fixed number of them.
class VetoingObserver : public MiningObserver {
 public:
  explicit VetoingObserver(int veto_after = -1) : veto_after_(veto_after) {}
  bool OnIteration(const IterationStats& stats) override {
    ++calls;
    max_k_seen = std::max(max_k_seen, stats.k);
    return veto_after_ < 0 || calls < veto_after_;
  }
  int calls = 0;
  size_t max_k_seen = 0;

 private:
  int veto_after_;
};

TEST(RulesObserverTest, ReportsEveryPatternSizeInOrder) {
  FrequentItemsets sets = MineExample();
  MiningOptions options = PaperExampleOptions();
  VetoingObserver observer;
  options.observer = &observer;
  auto rules = GenerateRules(sets, options, RuleMode::kAnySubset);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  // At least one callback per expandable pattern size (sizes 2..MaxSize);
  // mid-level callbacks on large levels may add more, never fewer.
  ASSERT_GE(sets.MaxSize(), 2u);
  EXPECT_GE(observer.calls, static_cast<int>(sets.MaxSize()) - 1);
  EXPECT_EQ(observer.max_k_seen, sets.MaxSize());

  // The observer is progress-only: the rules are identical without it.
  options.observer = nullptr;
  auto plain = GenerateRules(sets, options, RuleMode::kAnySubset);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(rules.value().size(), plain.value().size());
  EXPECT_TRUE(rules.value() == plain.value());
}

TEST(RulesObserverTest, VetoCancelsGeneration) {
  FrequentItemsets sets = MineExample();
  MiningOptions options = PaperExampleOptions();
  VetoingObserver observer(/*veto_after=*/1);
  options.observer = &observer;
  auto rules = GenerateRules(sets, options, RuleMode::kAnySubset);
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(observer.calls, 1);
}

TEST(RulesObserverTest, EmptyInputNeverCallsBack) {
  FrequentItemsets sets;
  MiningOptions options;
  VetoingObserver observer(/*veto_after=*/1);
  options.observer = &observer;
  auto rules = GenerateRules(sets, options);
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules.value().empty());
  EXPECT_EQ(observer.calls, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulesPropertyTest,
                         testing::Values(21, 22, 23, 24));

// Lift metric sanity (computed during rule generation).
TEST(RuleLiftTest, LiftMatchesDefinition) {
  BruteForceMiner miner;
  auto result =
      miner.Mine(PaperExampleTransactions(), PaperExampleOptions());
  ASSERT_TRUE(result.ok());
  MiningOptions options = PaperExampleOptions();
  auto rules = GenerateRules(result.value().itemsets, options).value();
  ASSERT_FALSE(rules.empty());
  const double n =
      static_cast<double>(result.value().itemsets.num_transactions);
  for (const auto& r : rules) {
    const int64_t consequent_count =
        result.value().itemsets.CountOf(r.consequent);
    ASSERT_GT(consequent_count, 0);
    const double expected =
        r.confidence / (static_cast<double>(consequent_count) / n);
    EXPECT_NEAR(r.lift, expected, 1e-12);
    EXPECT_GT(r.lift, 0.0);
  }
  // F ==> D has confidence 1.0 and |D| = 6/10: lift = 1 / 0.6.
  for (const auto& r : rules) {
    if (r.antecedent == std::vector<ItemId>{5} &&
        r.consequent == std::vector<ItemId>{3}) {
      EXPECT_NEAR(r.lift, 1.0 / 0.6, 1e-12);
    }
  }
}

}  // namespace
}  // namespace setm
