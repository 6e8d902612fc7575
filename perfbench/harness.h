// Measurement plumbing of the repo benchmark: registry counter deltas, the
// benchmark's own span recorder, sample statistics and the per-run record
// every workload fills in. Nothing here calls into the mining engine except
// obs::MetricsRegistry::Global()->Snapshot().
#ifndef SETM_PERFBENCH_HARNESS_H_
#define SETM_PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The registry series the benchmark reads, each as a monotone value: a
/// counter, or a histogram's sum / count.
enum Ctr {
  kPageReads,
  kPageWrites,
  kPoolHits,
  kPoolMisses,
  kPoolEvictions,
  kPoolDirtyWritebacks,
  kSortRows,
  kSortSpilledRuns,
  kSortMergePasses,
  kWorkerBusyUs,
  kWorkerWaitUs,
  kWalBytes,
  kWalFsyncs,
  kWalPageRecords,
  kPlanFullMine,
  kPlanDeltaDerive,
  kPlanCacheFilter,
  kPlanRequestUs,
  kPlanRequests,
  kSrvRequestUs,
  kSrvRequests,
  kSrvBytesOut,
  kMineIterations,
  kShardIterations,
  kNumCtr
};

using Counters = std::array<uint64_t, kNumCtr>;

/// Current value of every series in Ctr, from one registry snapshot.
Counters ReadCounters();
/// Element-wise `after - before`.
Counters Minus(const Counters& after, const Counters& before);
/// Element-wise sum, for totals over ops.
void AddTo(Counters* total, const Counters& delta);

/// Microseconds on the steady clock since the first call in this process.
int64_t NowUs();

/// One span recorded by the benchmark around a call into a layer.
struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int parent = -1;  ///< index into the tracer's spans, -1 for a root
  int op = -1;      ///< op id (0 = the warm-up op), -1 outside ops
  Counters delta{};  ///< registry deltas over [start, end]
};

/// Keeps spans in memory and writes them out once, at exit. Disabled, every
/// call is a no-op returning -1, so measured runs pay nothing for it.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span now; returns its id (or -1 when disabled).
  int Begin(const std::string& name, int parent, int op);
  /// Closes span `id` now and records its counter delta.
  void End(int id);
  /// Records an already finished span (iteration spans built from observer
  /// timestamps).
  int Add(const std::string& name, int64_t start_us, int64_t end_us,
          int parent, int op, const Counters& delta);

  /// Per span name: count, mean total and mean self time (duration minus
  /// the time covered by child spans), as a printable table.
  std::string SelfTimeTable() const;
  /// Writes every span as JSON. Returns false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Counters> begin_counters_;
};

/// Median (0 for an empty sample).
double Median(std::vector<double> v);
/// Linearly interpolated quantile q in [0, 1] (0 for an empty sample).
double Quantile(std::vector<double> v, double q);
/// "n=<count> p50=<..> p90=<..>": the median and the highest of p75, p90,
/// p95, p99 that has at least ten samples beyond it, when one does.
std::string DescribeSample(const std::vector<double>& v, const char* unit);

/// One timed op: its wall time and the registry delta across it.
struct OpSample {
  double ms = 0.0;
  Counters delta{};
};

/// Counts that must repeat exactly at a fixed seed, by name.
struct DeterministicCounts {
  std::vector<std::pair<std::string, uint64_t>> values;
  std::string ToString() const;
  bool operator==(const DeterministicCounts& o) const {
    return values == o.values;
  }
};

/// Everything one workload run measured. Workloads fill the raw samples;
/// main turns them into the reported metrics.
struct RunRecord {
  std::vector<double> setup_s;  ///< one per set-up replicate
  std::vector<double> load_s;   ///< LoadSalesTable span, per replicate
  std::vector<OpSample> ops;    ///< the timed ops
  double window_s = 0.0;        ///< wall time of the timed window
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  /// Layer metrics the workload measures itself (iteration times, request
  /// round trips, ...), by reported name.
  std::map<std::string, double> layer;
  /// Fixed-script passes run (serve_append); planner counts are per pass.
  size_t scripts = 0;
  /// Bytes of SALES tuples appended in the timed window (8 per tuple).
  uint64_t user_bytes = 0;
  /// Time the benchmark spent on its own work: generating inputs and the
  /// reference mines. Reported, never part of a metric.
  double harness_s = 0.0;
  /// Peak RSS at the end of the timed window, before verification.
  double peak_rss_mb = 0.0;
  /// Samples that must all be equal within the run: every timed op of a
  /// mine workload, every pass (set-up plus script) of serve_append.
  std::vector<DeterministicCounts> repeats;
  /// The counts that must repeat from run to run at a fixed seed.
  DeterministicCounts run_counts;

  void Fail(const std::string& message);
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // SETM_PERFBENCH_HARNESS_H_
