// E4 — Figure 5: size (in Kbytes) of relation R_i vs iteration number, one
// series per minimum support in {0.1, 0.5, 1, 2, 5}%, on the calibrated
// retail database.
//
// Paper shape: |R1| identical across series (the starting relation);
// R_i sizes decrease with iteration, with the decrease delayed (possible
// initial bump above R1's *byte* size) only at small minimum support;
// R4 = 0 for every series (maximum pattern size 3).
//
// Sizes are the paper's: |R_k|·(k+1)·4 bytes, (trans_id, item_1..item_k)
// per row, although the engine stores R_1 and R_k as one group per
// transaction, its trans_id once and its ids as varint deltas.
//
// usage: fig5_relation_sizes [--smoke]
//   --smoke: the lowest minsup only. Exits 1 if an iteration's bytes are
//   not |R_k|·(k+1)·4 (checked in both modes).

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "core/setm.h"

int main(int argc, char** argv) {
  using namespace setm;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::Banner(
      "fig5_relation_sizes",
      "Figure 5 (Section 6.1): Size of relation R_i, retail data set",
      "R_i KB falls with i; sharp drop at high minsup, delayed at 0.1%; "
      "R4 = 0 everywhere; |R1| = 115,568 tuples in all series");

  const TransactionDb& txns = bench::RetailDb();
  std::printf("%-10s %12s %12s %12s %12s %10s\n", "minsup(%)", "R1 (KB)",
              "R2 (KB)", "R3 (KB)", "R4 (KB)", "|R1|rows");
  for (double pct : bench::PaperMinSupSweep()) {
    if (smoke && pct != bench::PaperMinSupSweep().front()) break;
    Database db;
    SetmMiner miner(&db);
    MiningOptions options;
    options.min_support = pct / 100.0;
    auto result = miner.Mine(txns, options);
    if (!result.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    double kb[4] = {0, 0, 0, 0};
    uint64_t r1_rows = 0;
    for (const IterationStats& it : result.value().iterations) {
      if (it.r_bytes != it.r_rows * (it.k + 1) * sizeof(int32_t)) {
        std::fprintf(stderr,
                     "FAIL: minsup %.1f%%: R_%zu is %llu bytes for %llu "
                     "rows, not (k+1)*4 a row\n",
                     pct, it.k, static_cast<unsigned long long>(it.r_bytes),
                     static_cast<unsigned long long>(it.r_rows));
        return 1;
      }
      if (it.k >= 1 && it.k <= 4) {
        kb[it.k - 1] = static_cast<double>(it.r_bytes) / 1024.0;
      }
      if (it.k == 1) r1_rows = it.r_rows;
    }
    std::printf("%-10.1f %12.1f %12.1f %12.1f %12.1f %10llu\n", pct, kb[0],
                kb[1], kb[2], kb[3],
                static_cast<unsigned long long>(r1_rows));
  }
  std::printf(
      "\nnote: the paper plots the same data set with |R1| = 115,568 tuples\n"
      "(~%d KB at 8 bytes/tuple); series share R1 and differ from R2 on.\n",
      115568 * 8 / 1024);
  return 0;
}
