// The paper's announced extension: "relating association rules to customer
// classes." Two synthetic customer segments share a store; the classed
// miner runs the SETM pipeline once per class, over that class's slice of
// the transactions, and the rules differ sharply between segments.
//
// Usage:   ./build/examples/customer_classes

#include <cstdio>
#include <set>

#include "common/random.h"
#include "core/classed_mining.h"
#include "core/rules.h"

int main() {
  using namespace setm;

  // Segment 0 ("families"): cereal(0) + milk(1) baskets, often with
  // baseball cards(2). Segment 1 ("students"): noodles(10) + soda(11),
  // sometimes coffee(12). A shared staple: bread(20).
  Rng rng(2024);
  TransactionDb txns;
  CustomerClasses classes;
  TransactionId next_tid = 1;
  for (int i = 0; i < 600; ++i) {
    Transaction t;
    t.id = next_tid++;
    const ClassId cls = i % 2;
    std::set<ItemId> items;
    if (cls == 0) {
      items.insert(0);
      items.insert(1);
      if (rng.Bernoulli(0.8)) items.insert(2);
    } else {
      items.insert(10);
      items.insert(11);
      if (rng.Bernoulli(0.4)) items.insert(12);
    }
    if (rng.Bernoulli(0.5)) items.insert(20);
    t.items.assign(items.begin(), items.end());
    txns.push_back(std::move(t));
    classes.assignments.emplace_back(t.id, cls);
  }

  Database db;
  ClassedSetmMiner miner(&db);
  MiningOptions options;
  options.min_support = 0.30;
  options.min_confidence = 0.70;
  auto result = miner.Mine(txns, classes, options);
  if (!result.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  auto item_name = [](ItemId id) -> std::string {
    switch (id) {
      case 0: return "cereal";
      case 1: return "milk";
      case 2: return "cards";
      case 10: return "noodles";
      case 11: return "soda";
      case 12: return "coffee";
      case 20: return "bread";
      default: return std::to_string(id);
    }
  };

  for (const auto& [cls, itemsets] : result.value().per_class) {
    std::printf("\n=== customer class %d (%llu transactions) ===\n", cls,
                static_cast<unsigned long long>(itemsets.num_transactions));
    auto rules = GenerateRules(itemsets, options).value();
    for (const AssociationRule& rule : rules) {
      std::printf("  %s\n", FormatRule(rule, item_name).c_str());
    }
    if (rules.empty()) std::printf("  (no rules at these thresholds)\n");
  }
  std::printf("\n%zu transactions in %zu classes, %.3f ms\n", txns.size(),
              result.value().per_class.size(),
              result.value().total_seconds * 1000.0);
  return 0;
}
