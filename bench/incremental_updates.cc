// incremental_updates — delta-batch maintenance vs full remine.
//
// The ROADMAP's serving ambition needs mined results that stay fresh as
// transactions arrive without re-reading the whole history. This experiment
// appends batches of increasing size to a mined-and-stored base database
// and compares, per batch size, the MiningPlanner's answer to the append
// (FUP-style delta derivation within the 25% budget, a full mine above it)
// against a full remine of the combined SALES relation: wall-clock time
// and the IoStats page traffic of each path, plus a bit-identity check of
// the resulting itemsets (the derivation is exact, not approximate).
//
// Expected shape: for small batches the delta path reads fewer pages (it
// mines only the delta partition and scans the old partition at most once,
// to count the borderline candidates through the SETM pipeline); as the
// batch fraction grows the planner's derivation budget routes the update
// to a full mine. Times are printed, not gated.
//
// usage: incremental_updates [--smoke]   (--smoke: tiny sizes for CI)

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/mining_planner.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "incremental/itemset_store.h"

namespace {

using namespace setm;

/// A batch of fresh transactions whose ids continue after `start_after`.
TransactionDb MakeBatch(uint32_t count, uint64_t seed,
                        TransactionId start_after) {
  QuestOptions gen;
  gen.num_transactions = count;
  gen.avg_transaction_size = 8;
  gen.num_items = 200;
  gen.num_patterns = 30;
  gen.seed = seed;
  TransactionDb batch = QuestGenerator(gen).Generate();
  for (Transaction& t : batch) t.id += start_after;
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  bench::Banner(
      "incremental_updates",
      "ROADMAP: incremental mining subsystem (ItemsetStore + delta-derive)",
      "delta update reads fewer pages than full remine for small batches");

  QuestOptions gen;
  gen.num_transactions = smoke ? 1200 : 30000;
  gen.avg_transaction_size = 8;
  gen.num_items = 200;
  gen.num_patterns = 30;
  gen.seed = 7;
  const TransactionDb base = QuestGenerator(gen).Generate();
  const TransactionId base_watermark = MaxTransactionId(base);

  MiningOptions options;
  options.min_support = 0.01;

  SetmOptions setm_options;
  setm_options.storage = TableBacking::kHeap;

  // A pool smaller than SALES so both paths pay real page traffic.
  DatabaseOptions db_options;
  db_options.pool_frames = smoke ? 16 : 128;

  std::printf("base: %s, minsup %.1f%%, pool %zu frames\n\n",
              QuestDatasetName(gen).c_str(), options.min_support * 100.0,
              db_options.pool_frames);
  std::printf("%-8s %-14s %10s %12s %10s %12s %8s %7s\n", "batch", "mode",
              "delta(s)", "delta reads", "full(s)", "full reads", "ratio",
              "match");

  const std::vector<double> fractions = {0.01, 0.05, 0.20, 0.40};
  bool small_batch_checked = false;
  for (double fraction : fractions) {
    const uint32_t batch_size =
        static_cast<uint32_t>(fraction * gen.num_transactions);
    if (batch_size == 0) continue;
    const TransactionDb batch =
        MakeBatch(batch_size, gen.seed + 1000, base_watermark);

    // Incremental side: a cold planner request mines the base and writes
    // the store (unmeasured), then the append request is the measured
    // operation.
    Database delta_db(db_options);
    auto sales_or =
        LoadSalesTable(&delta_db, "sales", base, TableBacking::kHeap);
    if (!sales_or.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   sales_or.status().ToString().c_str());
      return 1;
    }
    PlannerOptions planner_options;
    planner_options.store_prefix = "fi";
    planner_options.store_backing = TableBacking::kHeap;
    planner_options.setm = setm_options;
    MiningPlanner planner(&delta_db, planner_options);
    PlanRequest request;
    request.table = sales_or.value();
    request.options = options;
    if (!planner.Execute(request).ok()) {
      std::fprintf(stderr, "base mine/store failed\n");
      return 1;
    }
    request.append = &batch;
    WallTimer delta_timer;
    auto delta_or = planner.Execute(request);
    if (!delta_or.ok()) {
      std::fprintf(stderr, "delta update failed: %s\n",
                   delta_or.status().ToString().c_str());
      return 1;
    }
    const double delta_seconds = delta_timer.ElapsedSeconds();
    const PlanExecution& delta_result = delta_or.value();
    const bool derived =
        delta_result.plan.strategy == PlanStrategy::kDeltaDerive;
    const uint64_t delta_reads = delta_result.result.io.page_reads;

    // Full-remine side: same combined relation, mined from scratch.
    Database full_db(db_options);
    auto full_sales_or =
        LoadSalesTable(&full_db, "sales", base, TableBacking::kHeap);
    if (!full_sales_or.ok()) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
    const IoStats full_before = *full_db.io_stats();
    WallTimer full_timer;
    for (const Transaction& t : batch) {
      for (ItemId item : t.items) {
        if (!full_sales_or.value()
                 ->Insert(Tuple({Value::Int32(t.id), Value::Int32(item)}))
                 .ok()) {
          std::fprintf(stderr, "append failed\n");
          return 1;
        }
      }
    }
    auto full_or = SetmMiner(&full_db, setm_options)
                       .MineTable(*full_sales_or.value(), options);
    if (!full_or.ok()) {
      std::fprintf(stderr, "full remine failed: %s\n",
                   full_or.status().ToString().c_str());
      return 1;
    }
    const double full_seconds = full_timer.ElapsedSeconds();
    const IoStats full_io = Diff(*full_db.io_stats(), full_before);
    const uint64_t full_reads = full_io.page_reads;

    const bool match =
        delta_result.result.itemsets == full_or.value().itemsets;
    std::printf("%-8.0f%% %-13s %10.3f %12llu %10.3f %12llu %7.2fx %7s\n",
                fraction * 100.0,
                PlanStrategyName(delta_result.plan.strategy),
                delta_seconds, static_cast<unsigned long long>(delta_reads),
                full_seconds, static_cast<unsigned long long>(full_reads),
                delta_reads == 0
                    ? 0.0
                    : static_cast<double>(full_reads) /
                          static_cast<double>(delta_reads),
                match ? "yes" : "NO");
    if (!match) {
      std::fprintf(stderr, "incremental result diverged at batch %.0f%%!\n",
                   fraction * 100.0);
      return 1;
    }
    // The headline claim, checked on the smallest batch: delta maintenance
    // must read fewer pages than remining everything.
    if (!small_batch_checked) {
      small_batch_checked = true;
      if (!derived || delta_reads >= full_reads) {
        std::fprintf(stderr,
                     "smallest batch did not beat full remine "
                     "(delta %llu reads vs full %llu)!\n",
                     static_cast<unsigned long long>(delta_reads),
                     static_cast<unsigned long long>(full_reads));
        return 1;
      }
    }
  }
  return 0;
}
