// A6 — ablation: Figure 4 joins R_{k-1} with the *unfiltered* R_1 (every
// SALES tuple, frequent or not); the obvious optimization restricts R_1 to
// items in C_1 first. Results are provably identical (infrequent
// extensions die in the C_k filter); the ablation quantifies how much work
// the paper's formulation leaves on the table.
//
// Expected shape: identical itemsets; |R'_k| and time shrink with
// filter_r1=on, most at small minimum support where C_1 keeps most items
// (small saving) and at large minimum support where C_1 is small (big
// saving).
//
// usage: ablation_filter_r1 [--smoke]
//   --smoke: the lowest and the highest minsup only. Exits 1 if the two
//   settings' itemsets differ or the filtered |R'_2| exceeds the
//   unfiltered one (checked in both modes).

#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"

int main(int argc, char** argv) {
  using namespace setm;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::Banner(
      "ablation_filter_r1",
      "Figure 4's unfiltered R_1 vs C_1-filtered R_1",
      "identical itemsets; filtered run generates fewer R'_2 tuples, "
      "savings grow with minsup");

  const TransactionDb& txns = bench::RetailDb();
  const std::vector<double>& sweep = bench::PaperMinSupSweep();
  std::printf("%-10s %-10s %12s %14s %10s\n", "minsup(%)", "filter_r1",
              "time(s)", "|R'_2| rows", "patterns");
  for (double pct : sweep) {
    if (smoke && pct != sweep.front() && pct != sweep.back()) continue;
    std::optional<FrequentItemsets> unfiltered;
    uint64_t unfiltered_r2p = 0;
    for (bool filter : {false, true}) {
      Database db;
      SetmMiner miner(&db);
      MiningOptions options;
      options.min_support = pct / 100.0;
      options.filter_r1 = filter;
      WallTimer timer;
      auto result = miner.Mine(txns, options);
      if (!result.ok()) {
        std::fprintf(stderr, "mining failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      uint64_t r2p = 0;
      for (const IterationStats& it : result.value().iterations) {
        if (it.k == 2) r2p = it.r_prime_rows;
      }
      std::printf("%-10.1f %-10s %12.3f %14llu %10zu\n", pct,
                  filter ? "on" : "off", timer.ElapsedSeconds(),
                  static_cast<unsigned long long>(r2p),
                  result.value().itemsets.TotalPatterns());
      if (!filter) {
        unfiltered = result.value().itemsets;
        unfiltered_r2p = r2p;
        continue;
      }
      if (!(result.value().itemsets == *unfiltered)) {
        std::fprintf(stderr,
                     "FAIL: minsup %.1f%%: the itemsets with filter_r1 "
                     "differ from those without\n",
                     pct);
        return 1;
      }
      // The filtered R_1 is a subset of R_1, so it pairs no more rows.
      if (r2p > unfiltered_r2p) {
        std::fprintf(stderr,
                     "FAIL: minsup %.1f%%: |R'_2| is %llu with filter_r1, "
                     "over the %llu without\n",
                     pct, static_cast<unsigned long long>(r2p),
                     static_cast<unsigned long long>(unfiltered_r2p));
        return 1;
      }
    }
  }
  return 0;
}
