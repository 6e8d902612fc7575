#ifndef SETM_BENCH_BENCH_UTIL_H_
#define SETM_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment binaries. Each binary regenerates one
// table or figure of the paper (listed in bench/README.md) and prints both
// the measured values and, where applicable, the numbers the paper reports,
// so the *shape* comparison is visible at a glance.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/miner_registry.h"
#include "core/types.h"
#include "datagen/retail_generator.h"
#include "obs/metrics.h"
#include "relational/database.h"

namespace setm::bench {

/// Measures what one code region cost in process-wide metric terms:
/// snapshot the registry at construction, then ask for counter deltas.
/// Lets benches *assert* their claims ("the re-query read 10x fewer
/// pages") against the same series a scrape would see, instead of only
/// printing numbers.
///
///     MetricsDelta delta;
///     RunTheQuery();
///     uint64_t reads = delta.Counter("setm_io_page_reads_total");
class MetricsDelta {
 public:
  MetricsDelta() : before_(obs::MetricsRegistry::Global()->Snapshot()) {}

  /// Counter increase since construction (0 for unknown names).
  uint64_t Counter(const std::string& name) const {
    const uint64_t now =
        obs::MetricsRegistry::Global()->Snapshot().CounterValue(name);
    const uint64_t then = before_.CounterValue(name);
    return now >= then ? now - then : 0;
  }

  /// Re-anchors the baseline at now.
  void Reset() { before_ = obs::MetricsRegistry::Global()->Snapshot(); }

 private:
  obs::MetricsSnapshot before_;
};

/// The paper's minimum-support sweep (Sections 6.1-6.2), in percent.
inline const std::vector<double>& PaperMinSupSweep() {
  static const std::vector<double> kSweep = {0.1, 0.5, 1.0, 2.0, 5.0};
  return kSweep;
}

/// One shared instance of the calibrated retail database (46,873
/// transactions). Generated once per process; a function-local static value
/// (not a leaked pointer) so it is destroyed at exit and stays clean under
/// LeakSanitizer.
inline const TransactionDb& RetailDb() {
  static const TransactionDb db = RetailGenerator(RetailOptions{}).Generate();
  return db;
}

/// Runs one registry-registered algorithm over `txns` on a fresh Database
/// and returns the result — the uniform way bench binaries construct
/// miners, replacing per-bench construction boilerplate. `knobs` are the
/// physical options (storage/count_method/num_threads); `db_options` shape
/// the database (pool sizes, sort budget) for I/O-sensitive experiments.
/// Benches have no error channel beyond stderr, so failures exit(1).
inline MiningResult RunAlgo(const std::string& name,
                            const TransactionDb& txns,
                            const MiningOptions& options,
                            const SetmOptions& knobs = {},
                            const DatabaseOptions& db_options = {}) {
  Database db(db_options);
  auto miner = MinerRegistry::Create(name, &db, knobs);
  if (!miner.ok()) {
    std::fprintf(stderr, "RunAlgo(%s): %s\n", name.c_str(),
                 miner.status().ToString().c_str());
    std::exit(1);
  }
  MiningRequest request;
  request.transactions = &txns;
  request.options = options;
  auto result = miner.value()->Mine(request);
  if (!result.ok()) {
    std::fprintf(stderr, "RunAlgo(%s): mining failed: %s\n", name.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Prints a banner identifying the experiment.
inline void Banner(const std::string& experiment, const std::string& paper_ref,
                   const std::string& expectation) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_ref.c_str());
  std::printf("expected shape: %s\n", expectation.c_str());
  std::printf("================================================================\n");
}

}  // namespace setm::bench

#endif  // SETM_BENCH_BENCH_UTIL_H_
