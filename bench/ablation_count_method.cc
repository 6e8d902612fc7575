// A5 — ablation: the memory budget of the C_k count (Figure 4's "sort R'_k
// on item_1..item_k; C_k := generate counts") on the calibrated retail data
// in heap mode. The count is keyed by (C_k id, C_1 rank): a dense array
// when its counters fit the budget, else a hashed table that, when it
// would outgrow its budget, spills its (key, count) entries as one sorted
// run; the runs are merged and summed at the end, and at every cascade
// pass. kSortMerge counts within
// the sort budget; kHash is the unbounded case (dense up to the default
// sort budget).
//
// Expected shape: identical itemsets at every budget. Small budgets spill
// more runs and pay their page traffic; each run holds at most one entry
// per candidate, so spilled entries stay far below |R'_k|. The runs are
// scratch pages in the database's one pool, next to R_k, with R_k's
// lifecycle: each page is written at most once per allocation or id reuse,
// and a merged run's pages are released, unwritten if still in the pool.
// At most 64 runs merge at once, so the count's runs cascade (merge
// passes > 0) only past 64. Once the budget holds every candidate nothing
// spills, and the pages match the unbounded count's. R'_2 is counted over
// C_1's ranks (59 items at 0.1%, a triangle of 13.4 KiB), so from 1%
// minsup up 16 KiB holds every level's count; the sweep starts at 4 KiB,
// below C_1's own count over the data's 992 distinct items (7.8 KiB),
// which spills at every minsup. Each row also prints the mine's
// itemset-key hash probes, only the adds of a hashed count (a pass reads a
// left row's C_{k-1} id from the row, R_k being (trans_id, C_k id)), and
// the (itemset, count) entries the shard handed to the coordinator.
//
// usage: ablation_count_method [--smoke]
//   --smoke: the lowest minsup only. Exits 1 if the itemsets differ across
//   budgets, the smallest budget does not spill, a budget at or above the
//   unbounded count's peak table bytes spills, a budget that holds every
//   level's dense array makes any hash probe, or a mine writes more pages
//   than it allocates plus the ids it reuses (checked in both modes).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"

namespace {

using namespace setm;

/// Bytes of the largest dense count a mine of `txns` with the frequent
/// itemsets `frequent` over `levels` iterations allocates: C_1's counters
/// over the distinct items, R'_2's triangle over C_1, and for k >= 2 one
/// counter per C_k itemset and C_1 item above its last item.
uint64_t LargestDenseCount(const TransactionDb& txns,
                           const FrequentItemsets& frequent, size_t levels) {
  std::set<ItemId> distinct;
  for (const Transaction& t : txns) {
    distinct.insert(t.items.begin(), t.items.end());
  }
  std::vector<ItemId> c1;
  for (const PatternCount& pc : frequent.OfSize(1)) c1.push_back(pc.items[0]);
  std::sort(c1.begin(), c1.end());
  const uint64_t n = c1.size();
  uint64_t counters = std::max<uint64_t>(distinct.size(), n * (n - 1) / 2);
  for (size_t k = 2; k < levels; ++k) {
    uint64_t level = 0;
    for (const PatternCount& pc : frequent.OfSize(k)) {
      level += static_cast<uint64_t>(
          c1.end() - std::upper_bound(c1.begin(), c1.end(), pc.items.back()));
    }
    counters = std::max(counters, level);
  }
  return counters * sizeof(int64_t);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::Banner(
      "ablation_count_method",
      "Figure 4's count of R'_k, aggregated within a memory budget",
      "identical itemsets; spills and pages fall as the budget grows, "
      "none once it holds every candidate");

  const TransactionDb& txns = bench::RetailDb();
  constexpr size_t kUnbounded = 0;
  const size_t kBudgets[] = {4 << 10,  16 << 10, 256 << 10,
                             1 << 20,  4 << 20,  kUnbounded};

  obs::Gauge* peak =
      obs::MetricsRegistry::Global()->GetGauge("setm_mem_count_bytes");
  std::printf(
      "%-10s %-12s %10s %10s %8s %12s %8s %8s %10s %12s %10s %10s %10s\n",
      "minsup(%)", "budget", "time(s)", "accesses", "writes", "alloc+reuse",
      "runs", "passes", "spilled", "table(KiB)", "probes", "merged",
      "patterns");
  for (double pct : bench::PaperMinSupSweep()) {
    if (smoke && pct != bench::PaperMinSupSweep().front()) break;
    MiningOptions options;
    options.min_support = pct / 100.0;
    std::optional<FrequentItemsets> first;
    std::vector<uint64_t> spilled;  // runs per bounded budget
    int64_t unbounded_peak = 0;
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
      peak->Set(0);
      WallTimer timer;
      const MiningResult result =
          bench::RunAlgo("setm", txns, options, knobs, db_options);
      const double seconds = timer.ElapsedSeconds();
      const uint64_t runs = delta.Counter("setm_count_spilled_runs_total");
      const uint64_t entries =
          delta.Counter("setm_count_spilled_entries_total");
      const uint64_t passes = delta.Counter("setm_count_merge_passes_total");
      const uint64_t probes = delta.Counter("setm_itemset_probes_total");
      const uint64_t merged = delta.Counter("setm_count_entries_total");
      const IoStats& io = result.io;
      const uint64_t handed_out = io.pages_allocated + io.pages_reused;
      const std::string label =
          budget == kUnbounded ? "unbounded" : std::to_string(budget >> 10) +
                                                   " KiB";
      std::printf(
          "%-10.1f %-12s %10.3f %10llu %8llu %12llu %8llu %8llu %10llu "
          "%12.1f %10llu %10llu %10zu\n",
          pct, label.c_str(), seconds,
          static_cast<unsigned long long>(io.TotalAccesses()),
          static_cast<unsigned long long>(io.page_writes),
          static_cast<unsigned long long>(handed_out),
          static_cast<unsigned long long>(runs),
          static_cast<unsigned long long>(passes),
          static_cast<unsigned long long>(entries),
          static_cast<double>(peak->Value()) / 1024.0,
          static_cast<unsigned long long>(probes),
          static_cast<unsigned long long>(merged),
          result.itemsets.TotalPatterns());
      // Spill pages share R_k's lifecycle: a reused id is written without
      // a new allocation, so each write is paid for by one or the other.
      if (io.page_writes > handed_out) {
        std::fprintf(stderr,
                     "FAIL: minsup %.1f%%: %s: %llu page writes for %llu "
                     "pages allocated or reused (a page written twice)\n",
                     pct, label.c_str(),
                     static_cast<unsigned long long>(io.page_writes),
                     static_cast<unsigned long long>(handed_out));
        return 1;
      }
      // Every level's count a dense array: nothing is hashed.
      const uint64_t dense_bytes = LargestDenseCount(
          txns, result.itemsets, result.iterations.size());
      const size_t dense_ceiling =
          budget == kUnbounded ? db_options.sort_memory_bytes : budget;
      if (dense_bytes <= dense_ceiling && probes != 0) {
        std::fprintf(stderr,
                     "FAIL: minsup %.1f%%: %s holds the dense count (%llu "
                     "bytes) yet made %llu hash probes\n",
                     pct, label.c_str(),
                     static_cast<unsigned long long>(dense_bytes),
                     static_cast<unsigned long long>(probes));
        return 1;
      }
      if (budget == kUnbounded) {
        unbounded_peak = peak->Value();
      } else {
        spilled.push_back(runs);
      }
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
    // A budget that holds the unbounded count's largest table never needs
    // to spill.
    for (size_t i = 0; i < spilled.size(); ++i) {
      if (static_cast<int64_t>(kBudgets[i]) >= unbounded_peak &&
          spilled[i] != 0) {
        std::fprintf(stderr,
                     "FAIL: minsup %.1f%%: the %zu KiB budget holds the "
                     "unbounded table (%lld bytes) yet spilled %llu runs\n",
                     pct, kBudgets[i] >> 10,
                     static_cast<long long>(unbounded_peak),
                     static_cast<unsigned long long>(spilled[i]));
        return 1;
      }
    }
  }
  return 0;
}
