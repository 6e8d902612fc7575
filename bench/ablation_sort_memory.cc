// A1 — ablation: external-sort memory budget vs SETM I/O and time, on the
// calibrated retail data in heap (paged) mode.
//
// Expected shape: tiny budgets spill many runs and pay extra temp-space
// traffic; once the budget covers the largest R'_k, spills vanish and page
// accesses flatten out. Wall-clock follows the same curve, damped.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"

int main() {
  using namespace setm;
  bench::Banner(
      "ablation_sort_memory",
      "the design choice behind Section 4.3's pipelined sorts",
      "page accesses fall as the sort budget grows, flat once nothing spills");

  const TransactionDb& txns = bench::RetailDb();
  MiningOptions options;
  options.min_support = 0.005;  // 0.5%, mid-sweep

  std::printf("%-14s %14s %14s %14s %10s\n", "sort budget", "accesses",
              "reads", "writes", "time(s)");
  for (size_t kb : {64u, 256u, 1024u, 4096u, 16384u}) {
    DatabaseOptions db_options;
    db_options.sort_memory_bytes = kb << 10;
    db_options.pool_frames = 512;
    db_options.temp_pool_frames = 128;
    Database db(db_options);
    SetmMiner miner(&db, SetmOptions{TableBacking::kHeap});
    WallTimer timer;
    auto result = miner.Mine(txns, options);
    if (!result.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const IoStats& io = result.value().io;
    std::printf("%10zu KiB %14llu %14llu %14llu %10.2f\n", kb,
                static_cast<unsigned long long>(io.TotalAccesses()),
                static_cast<unsigned long long>(io.page_reads),
                static_cast<unsigned long long>(io.page_writes),
                timer.ElapsedSeconds());
  }
  return 0;
}
