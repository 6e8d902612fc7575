// A5 — ablation: the paper's sort-then-count aggregation (Figure 4's second
// sort) vs hash aggregation for producing the count relations C_k, on the
// calibrated retail data.
//
// Expected shape: identical pattern counts; the hash path skips the item
// sort of R'_k entirely, so in heap mode it saves the temp-space traffic of
// that sort and is faster in memory mode — quantifying what the paper's
// sort-based design costs relative to the technique that displaced it.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"

int main() {
  using namespace setm;
  bench::Banner(
      "ablation_count_method",
      "Figure 4's sort-based counting vs hash aggregation",
      "identical itemsets; hash path avoids the R'_k item sort and its I/O");

  const TransactionDb& txns = bench::RetailDb();

  std::printf("%-10s %-12s %12s %14s %10s\n", "minsup(%)", "method", "time(s)",
              "accesses", "patterns");
  for (double pct : bench::PaperMinSupSweep()) {
    MiningOptions options;
    options.min_support = pct / 100.0;
    for (CountMethod method : {CountMethod::kSortMerge, CountMethod::kHash}) {
      DatabaseOptions db_options;
      db_options.pool_frames = 512;
      Database db(db_options);
      SetmOptions setm_options;
      setm_options.storage = TableBacking::kHeap;
      setm_options.count_method = method;
      SetmMiner miner(&db, setm_options);
      WallTimer timer;
      auto result = miner.Mine(txns, options);
      if (!result.ok()) {
        std::fprintf(stderr, "mining failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("%-10.1f %-12s %12.3f %14llu %10zu\n", pct,
                  method == CountMethod::kSortMerge ? "sort-merge" : "hash",
                  timer.ElapsedSeconds(),
                  static_cast<unsigned long long>(
                      result.value().io.TotalAccesses()),
                  result.value().itemsets.TotalPatterns());
    }
  }
  return 0;
}
