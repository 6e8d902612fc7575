// A5 — ablation: the memory budget of the C_k count (Figure 4's "sort R'_k
// on item_1..item_k; C_k := generate counts") on the calibrated retail data
// in heap mode. The count aggregates R'_k rows into a table; when the table
// would outgrow its budget it spills the table's (itemset, count) entries
// as one sorted run, and the runs are merged and summed at the end.
// kSortMerge counts within the sort budget; kHash is the unbounded case.
//
// Expected shape: identical itemsets at every budget. Small budgets spill
// more runs and pay their temp-space traffic; each run holds at most one
// entry per candidate, so spilled entries stay far below |R'_k|. Once the
// budget holds every candidate nothing spills, and the pages match the
// unbounded count's.
//
// usage: ablation_count_method [--smoke]
//   --smoke: the lowest minsup only. Exits 1 if the itemsets differ across
//   budgets or the smallest budget does not spill (checked in both modes).

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"

int main(int argc, char** argv) {
  using namespace setm;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::Banner(
      "ablation_count_method",
      "Figure 4's count of R'_k, aggregated within a memory budget",
      "identical itemsets; spills and pages fall as the budget grows, "
      "none once it holds every candidate");

  const TransactionDb& txns = bench::RetailDb();
  constexpr size_t kUnbounded = 0;
  const size_t kBudgets[] = {16 << 10, 256 << 10, 1 << 20, kUnbounded};

  std::printf("%-10s %-12s %10s %12s %10s %14s %10s\n", "minsup(%)",
              "budget", "time(s)", "accesses", "runs", "entries",
              "patterns");
  for (double pct : bench::PaperMinSupSweep()) {
    if (smoke && pct != bench::PaperMinSupSweep().front()) break;
    MiningOptions options;
    options.min_support = pct / 100.0;
    std::optional<FrequentItemsets> first;
    for (size_t budget : kBudgets) {
      DatabaseOptions db_options;
      db_options.pool_frames = 512;
      SetmOptions knobs;
      knobs.storage = TableBacking::kHeap;
      if (budget == kUnbounded) {
        knobs.count_method = CountMethod::kHash;
      } else {
        knobs.count_method = CountMethod::kSortMerge;
        db_options.sort_memory_bytes = budget;
      }
      bench::MetricsDelta delta;
      WallTimer timer;
      const MiningResult result =
          bench::RunAlgo("setm", txns, options, knobs, db_options);
      const double seconds = timer.ElapsedSeconds();
      const uint64_t runs = delta.Counter("setm_count_spilled_runs_total");
      // A SETM mine sorts nothing but the count's spilled entries.
      const uint64_t entries = delta.Counter("setm_sort_rows_total");
      const std::string label =
          budget == kUnbounded ? "unbounded" : std::to_string(budget >> 10) +
                                                   " KiB";
      std::printf("%-10.1f %-12s %10.3f %12llu %10llu %14llu %10zu\n", pct,
                  label.c_str(), seconds,
                  static_cast<unsigned long long>(result.io.TotalAccesses()),
                  static_cast<unsigned long long>(runs),
                  static_cast<unsigned long long>(entries),
                  result.itemsets.TotalPatterns());
      if (!first) {
        first = result.itemsets;
        if (runs == 0) {
          std::fprintf(stderr,
                       "FAIL: minsup %.1f%%: the %s budget did not spill\n",
                       pct, label.c_str());
          return 1;
        }
      } else if (!(result.itemsets == *first)) {
        std::fprintf(stderr,
                     "FAIL: minsup %.1f%%: itemsets at %s differ from %zu "
                     "KiB's\n",
                     pct, label.c_str(), kBudgets[0] >> 10);
        return 1;
      }
    }
  }
  return 0;
}
