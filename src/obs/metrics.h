#ifndef SETM_OBS_METRICS_H_
#define SETM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace setm::obs {

/// Process-wide metrics plane for the mining stack.
///
/// The paper's whole evaluation is an accounting exercise — page accesses
/// converted to time by a disk model — and the engine mirrors that: every
/// layer (buffer pool, WAL, worker pool, external sort, planner, miners)
/// reports into one named registry, so one snapshot answers "where did this
/// process's milliseconds and pages go". The hot path is a single relaxed
/// atomic add on a pointer the instrumented layer cached at construction;
/// registration (name lookup) happens once, reads snapshot on demand.
///
/// Three metric kinds, Prometheus-compatible by construction:
///   Counter    monotone uint64 (events, pages, bytes);
///   Gauge      signed level (queue depth) or high-water mark;
///   Histogram  log2-bucketed distribution (latencies, batch sizes) with
///              count/sum and quantile estimates on snapshot.

/// Monotonically increasing counter. Lock-free; safe from any thread.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Signed instantaneous level. Lock-free; safe from any thread.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  /// Raises the level to `v` when `v` is higher: a high-water mark.
  void RaiseTo(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// One read-consistent-enough view of a histogram (buckets are copied
/// without stopping writers; totals may trail by in-flight observes, which
/// is the standard snapshot-on-read contract).
struct HistogramSnapshot {
  uint64_t count = 0;  ///< observations
  uint64_t sum = 0;    ///< sum of observed values
  /// Per-bucket (non-cumulative) counts; bucket i covers
  /// (UpperBound(i-1), UpperBound(i)].
  std::vector<uint64_t> buckets;

  /// Inclusive upper bound of bucket `i`: 0, 1, 2, 4, 8, ... UINT64_MAX.
  static uint64_t UpperBound(size_t i);

  /// Quantile estimate: the upper bound of the bucket holding the q-th
  /// observation (q in [0,1]). Because buckets are log2-spaced, the true
  /// value v satisfies estimate/2 < v <= estimate (for v >= 1) — a
  /// guaranteed 2x bound the quantile tests assert against a sorted oracle.
  uint64_t Quantile(double q) const;
};

/// Log2-bucketed histogram: value v lands in the bucket whose inclusive
/// upper bound is the smallest power of two >= v (0 has its own bucket).
/// Observe() is lock-free — three relaxed atomic adds.
class Histogram {
 public:
  /// Bucket 0 holds zeros; bucket i (1..64) holds (2^(i-2), 2^(i-1)] with
  /// the last bucket absorbing everything above 2^62.
  static constexpr size_t kNumBuckets = 64;

  void Observe(uint64_t value);

  /// Records a wall-clock duration given in seconds as microseconds — the
  /// unit convention every *_micros histogram in the stack (planner, worker
  /// pool, server request latency) shares, kept in one place so exporters
  /// and dashboards never mix units.
  void ObserveDurationMicros(double seconds) {
    Observe(seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e6));
  }

  HistogramSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One exported metric in a registry snapshot.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  uint64_t counter_value = 0;           ///< kCounter
  int64_t gauge_value = 0;              ///< kGauge
  HistogramSnapshot histogram;          ///< kHistogram
};

/// A full registry snapshot, sorted by metric name (deterministic exports).
struct MetricsSnapshot {
  std::vector<MetricSnapshot> metrics;

  /// Counter value by name (0 when absent) — the bench-delta helper.
  uint64_t CounterValue(const std::string& name) const;
  /// Histogram by name (nullptr when absent).
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

/// Named metric registry. GetCounter/GetGauge/GetHistogram are
/// get-or-create: the first call under a name creates the metric, later
/// calls return the same pointer — so independent instances of a layer
/// (two buffer pools, many sorts) accumulate into one process-wide series,
/// which is exactly the semantics a scrape endpoint wants. Returned
/// pointers are stable for the registry's lifetime; callers cache them and
/// never pay the name lookup on the hot path. Asking for an existing name
/// with a different type is a fatal programming error.
///
/// Global() is the process-wide instance every production layer uses;
/// tests build local registries for deterministic golden snapshots.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed: instrumented singletons
  /// and static destructors may report during teardown).
  static MetricsRegistry* Global();

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  /// Point-in-time copy of every registered metric, sorted by name.
  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    MetricType type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* GetOrCreate(const std::string& name, const std::string& help,
                     MetricType type);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace setm::obs

#endif  // SETM_OBS_METRICS_H_
