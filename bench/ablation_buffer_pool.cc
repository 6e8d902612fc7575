// A2 — ablation: buffer-pool size vs real page traffic for SETM in heap
// mode on the calibrated retail data.
//
// Expected shape: page reads fall as the pool grows (more of R_1/R_{k-1}
// stays cached across the two join passes of each iteration, since R'_k is
// streamed, never stored) and flatten once the working set fits; writes
// are dominated by materialization and barely move.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/setm.h"

int main() {
  using namespace setm;
  bench::Banner(
      "ablation_buffer_pool",
      "Section 4.3 (the paper's analysis assumes pages re-read per pass)",
      "reads fall with pool size, then flatten; writes ~constant");

  const TransactionDb& txns = bench::RetailDb();
  MiningOptions options;
  options.min_support = 0.005;

  std::printf("%-12s %14s %14s %14s %12s\n", "pool frames", "reads",
              "rand.reads", "writes", "hit-rate(%)");
  for (size_t frames : {16u, 64u, 256u, 1024u, 4096u}) {
    DatabaseOptions db_options;
    db_options.pool_frames = frames;
    db_options.temp_pool_frames = 64;
    db_options.sort_memory_bytes = 1 << 20;
    Database db(db_options);
    SetmMiner miner(&db, SetmOptions{TableBacking::kHeap});
    auto result = miner.Mine(txns, options);
    if (!result.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const IoStats& io = result.value().io;
    const uint64_t hits = db.pool()->hits();
    const uint64_t misses = db.pool()->misses();
    const double hit_rate =
        hits + misses > 0
            ? 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses)
            : 0.0;
    std::printf("%-12zu %14llu %14llu %14llu %12.1f\n", frames,
                static_cast<unsigned long long>(io.page_reads),
                static_cast<unsigned long long>(io.random_reads),
                static_cast<unsigned long long>(io.page_writes), hit_rate);
  }
  return 0;
}
