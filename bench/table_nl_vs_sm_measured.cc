// E7 — measured counterpart of the Sections 3.2/4.3 analysis. The paper
// only *analyzes* the nested-loop strategy (running it on the full
// hypothetical database would take 11 hours of 1995 I/O); here both
// strategies actually run, instrumented, on a scaled-down Quest database
// behind a deliberately small buffer pool, and their real page accesses
// and disk-model times are compared.
//
// Expected shape: nested-loop performs one to two orders of magnitude more
// page accesses, dominated by random reads; SETM's accesses are mostly
// sequential. The gap widens as the database grows.

#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/quest_generator.h"

int main() {
  using namespace setm;
  bench::Banner(
      "table_nl_vs_sm_measured",
      "Sections 3.2 vs 4.3, measured on scaled-down data (small buffer pool)",
      "NL >= 5x the page accesses of SETM and ~8x disk-model time; NL random-heavy");

  std::printf("%-8s %-12s %12s %12s %12s %12s %12s\n", "txns", "strategy",
              "accesses", "rand.reads", "seq.reads", "writes", "model(s)");

  for (uint32_t n : {2000u, 5000u, 10000u}) {
    QuestOptions gen;
    gen.num_transactions = n;
    gen.avg_transaction_size = 8;
    gen.num_items = 200;
    gen.num_patterns = 40;
    gen.seed = 2025;
    TransactionDb txns = QuestGenerator(gen).Generate();
    MiningOptions options;
    options.min_support = 0.01;

    // Both strategies run through the registry; only the knobs differ.
    DatabaseOptions nl_db;
    nl_db.pool_frames = 32;  // indexes won't fit: probes hit the backend
    const IoStats nl_io =
        bench::RunAlgo("nested-loop", txns, options, {}, nl_db).io;

    DatabaseOptions sm_db;
    sm_db.pool_frames = 32;
    sm_db.sort_memory_bytes = 64 << 10;  // force external sorting
    SetmOptions sm_knobs;
    sm_knobs.storage = TableBacking::kHeap;
    const IoStats sm_io =
        bench::RunAlgo("setm", txns, options, sm_knobs, sm_db).io;
    auto row = [&](const char* name, const IoStats& io) {
      std::printf("%-8u %-12s %12llu %12llu %12llu %12llu %12.1f\n", n, name,
                  static_cast<unsigned long long>(io.TotalAccesses()),
                  static_cast<unsigned long long>(io.random_reads),
                  static_cast<unsigned long long>(io.sequential_reads),
                  static_cast<unsigned long long>(io.page_writes),
                  io.ModelSeconds());
    };
    row("nested-loop", nl_io);
    row("setm", sm_io);
    const double ratio =
        sm_io.TotalAccesses() > 0
            ? static_cast<double>(nl_io.TotalAccesses()) /
                  static_cast<double>(sm_io.TotalAccesses())
            : 0.0;
    std::printf("%-8s ratio (NL/SETM accesses): %.1fx\n\n", "", ratio);
  }
  return 0;
}
