// S1 — scaling: threaded SETM at 1/2/4/8 threads on a Quest-generated
// workload (post-paper: Houtsma & Swami ran SETM single-threaded; this
// measures how far the "mining = sort + merge-scan join" reduction
// parallelizes once SALES is range-partitioned on trans_id). SetmMiner runs
// num_threads in-process shards under the shard coordinator
// (shard/coordinator.h); 1 thread is the one-shard run.
//
// Asserted: pattern counts and itemsets are identical at every thread
// count (exit 1 otherwise). The speedups are printed for the record but not
// gated: the merge of partial C_k counts is serial on the coordinator, and
// per-row buffer-pool traffic keeps scaling flat on this engine today.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"

int main() {
  using namespace setm;
  bench::Banner(
      "scaling_threads",
      "ROADMAP: partition parallelism over the paper's two primitives",
      "identical patterns at all thread counts (asserted); speedups are "
      "measured and printed, not gated");

  QuestOptions gen;
  gen.num_transactions = 60000;
  gen.avg_transaction_size = 10;
  gen.num_items = 400;
  gen.num_patterns = 60;
  gen.seed = 7;
  const TransactionDb txns = QuestGenerator(gen).Generate();

  MiningOptions options;
  options.min_support = 0.01;

  std::printf("dataset: %s\n\n", QuestDatasetName(gen).c_str());
  std::printf("%-8s %12s %10s %12s %10s\n", "threads", "time(s)", "speedup",
              "patterns", "match");

  double base_seconds = 0.0;
  size_t base_patterns = 0;
  FrequentItemsets base_itemsets;
  for (size_t threads : {1, 2, 4, 8}) {
    Database db;
    SetmOptions setm_options;
    setm_options.num_threads = threads;
    SetmMiner miner(&db, setm_options);
    WallTimer timer;
    auto result = miner.Mine(txns, options);
    if (!result.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const double seconds = timer.ElapsedSeconds();
    const size_t patterns = result.value().itemsets.TotalPatterns();
    bool match = true;
    if (threads == 1) {
      base_seconds = seconds;
      base_patterns = patterns;
      base_itemsets = result.value().itemsets;
    } else {
      match = result.value().itemsets == base_itemsets;
    }
    std::printf("%-8zu %12.3f %9.2fx %12zu %10s\n", threads, seconds,
                base_seconds / seconds, patterns, match ? "yes" : "NO");
    if (!match || patterns != base_patterns) {
      std::fprintf(stderr, "thread count %zu changed the result!\n", threads);
      return 1;
    }
  }
  return 0;
}
