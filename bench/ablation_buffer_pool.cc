// A2 — ablation: buffer-pool size vs real page traffic for SETM in heap
// mode on the calibrated retail data.
//
// Expected shape: page reads fall as the pool grows, and already at mid-size
// pools: R_1, which every pass rescans, keeps its frames in the pool's
// retained share (half the frames), and R_{k-1}'s last scan reads the pages
// the pool still holds from their frames and the rest around the pool, so
// once R_1 fits its share a pass reads only the part of R_{k-1} that did
// not fit beside it; reads reach 0 once the working set fits. Writes are
// R_k's pages, each written at most once per allocation or id reuse, and
// fall as the pool grows too: R_k's head stays in the frames its pass
// frees, the rest is written around the pool's unread scratch, and a
// scratch page released while still in the pool is dropped unwritten.
// Even the smallest pool reads each iteration's inputs only once: at most
// the one-scan bound Σ_{k≥2} (pages(R_{k-1}) + pages(R_1)).
//
// usage: ablation_buffer_pool [--smoke]
//   --smoke: 16, 256 and 4096 frames only. Exits 1 if the itemsets differ
//   across pool sizes, a mine writes more pages than it allocates plus the
//   ids it reuses, the smallest pool reads more than the one-scan bound, or
//   the 256-frame mine reads more than 20% of the 16-frame mine's pages
//   (the pool policy at work; checked in both modes).

#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "core/setm.h"

int main(int argc, char** argv) {
  using namespace setm;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::Banner(
      "ablation_buffer_pool",
      "Section 4.3 (the paper's analysis assumes pages re-read per pass)",
      "reads fall with pool size, then flatten; writes fall as scratch "
      "pages die in the pool");

  const TransactionDb& txns = bench::RetailDb();
  MiningOptions options;
  options.min_support = 0.005;

  const std::vector<size_t> pool_sizes =
      smoke ? std::vector<size_t>{16, 256, 4096}
            : std::vector<size_t>{16, 64, 256, 1024, 4096};
  // The mid-size pool whose reads must be at most kMidPoolReadShare of the
  // smallest pool's: R_1 fits its retained share there, R_{k-1} does not.
  constexpr size_t kMidPoolFrames = 256;
  constexpr double kMidPoolReadShare = 0.2;
  std::printf("%-12s %10s %10s %10s %10s %10s %10s %12s\n", "pool frames",
              "reads", "rand.reads", "writes", "allocated", "reused",
              "one-scan", "hit-rate(%)");
  std::optional<FrequentItemsets> first;
  uint64_t smallest_pool_reads = 0;
  for (size_t frames : pool_sizes) {
    DatabaseOptions db_options;
    db_options.pool_frames = frames;
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
    const auto& iterations = result.value().iterations;
    uint64_t one_scan = 0;  // Σ_{k≥2} pages(R_{k-1}) + pages(R_1)
    for (size_t i = 1; i < iterations.size(); ++i) {
      one_scan += iterations[i - 1].r_pages + iterations[0].r_pages;
    }
    const uint64_t hits = db.pool()->hits();
    const uint64_t misses = db.pool()->misses();
    const double hit_rate =
        hits + misses > 0
            ? 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses)
            : 0.0;
    std::printf("%-12zu %10llu %10llu %10llu %10llu %10llu %10llu %12.1f\n",
                frames, static_cast<unsigned long long>(io.page_reads),
                static_cast<unsigned long long>(io.random_reads),
                static_cast<unsigned long long>(io.page_writes),
                static_cast<unsigned long long>(io.pages_allocated),
                static_cast<unsigned long long>(io.pages_reused),
                static_cast<unsigned long long>(one_scan), hit_rate);

    // A reused id is written without a new allocation, so each write is
    // paid for by an allocation or a reuse.
    if (io.page_writes > io.pages_allocated + io.pages_reused) {
      std::fprintf(stderr,
                   "FAIL: %zu frames: %llu page writes for %llu pages "
                   "allocated and %llu reused (a page written twice)\n",
                   frames, static_cast<unsigned long long>(io.page_writes),
                   static_cast<unsigned long long>(io.pages_allocated),
                   static_cast<unsigned long long>(io.pages_reused));
      return 1;
    }
    if (frames == pool_sizes.front()) {
      smallest_pool_reads = io.page_reads;
      if (io.page_reads > one_scan) {
        std::fprintf(stderr,
                     "FAIL: %zu frames: %llu page reads exceed the one-scan "
                     "bound of %llu\n",
                     frames, static_cast<unsigned long long>(io.page_reads),
                     static_cast<unsigned long long>(one_scan));
        return 1;
      }
    }
    if (frames == kMidPoolFrames &&
        static_cast<double>(io.page_reads) >
            kMidPoolReadShare * static_cast<double>(smallest_pool_reads)) {
      std::fprintf(stderr,
                   "FAIL: %zu frames: %llu page reads, more than %.0f%% of "
                   "the %llu at %zu frames\n",
                   frames, static_cast<unsigned long long>(io.page_reads),
                   100.0 * kMidPoolReadShare,
                   static_cast<unsigned long long>(smallest_pool_reads),
                   pool_sizes.front());
      return 1;
    }
    if (!first.has_value()) {
      first = std::move(result.value().itemsets);
    } else if (!(result.value().itemsets == *first)) {
      std::fprintf(stderr,
                   "FAIL: itemsets at %zu frames differ from those at %zu\n",
                   frames, pool_sizes.front());
      return 1;
    }
  }
  return 0;
}
