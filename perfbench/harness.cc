#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {
namespace {

enum class Kind { kCounter, kHistogramSum, kHistogramCount };

struct Source {
  const char* metric;
  Kind kind;
};

// Indexed by Ctr.
constexpr Source kSources[kNumCtr] = {
    {"setm_io_page_reads_total", Kind::kCounter},
    {"setm_io_page_writes_total", Kind::kCounter},
    {"setm_pool_hits_total", Kind::kCounter},
    {"setm_pool_misses_total", Kind::kCounter},
    {"setm_pool_evictions_total", Kind::kCounter},
    {"setm_pool_dirty_writebacks_total", Kind::kCounter},
    {"setm_sort_rows_total", Kind::kCounter},
    {"setm_sort_spilled_runs_total", Kind::kCounter},
    {"setm_sort_merge_passes_total", Kind::kCounter},
    {"setm_worker_task_micros", Kind::kHistogramSum},
    {"setm_worker_queue_wait_micros", Kind::kHistogramSum},
    {"setm_wal_bytes_total", Kind::kCounter},
    {"setm_wal_fsyncs_total", Kind::kCounter},
    {"setm_wal_page_records_total", Kind::kCounter},
    {"setm_plan_full_mine_total", Kind::kCounter},
    {"setm_plan_delta_derive_total", Kind::kCounter},
    {"setm_plan_cache_filter_total", Kind::kCounter},
    {"setm_plan_request_micros", Kind::kHistogramSum},
    {"setm_plan_request_micros", Kind::kHistogramCount},
    {"setm_srv_request_micros", Kind::kHistogramSum},
    {"setm_srv_request_micros", Kind::kHistogramCount},
    {"setm_srv_bytes_written_total", Kind::kCounter},
    {"setm_mine_iterations_total", Kind::kCounter},
    {"setm_shard_iterations_total", Kind::kCounter},
};

// Short names for span counter deltas in the trace file.
constexpr const char* kShortNames[kNumCtr] = {
    "page_reads",  "page_writes",  "pool_hits",     "pool_misses",
    "evictions",   "dirty_wb",     "sort_rows",     "spilled_runs",
    "merge_passes", "worker_busy_us", "worker_wait_us", "wal_bytes",
    "wal_fsyncs",  "wal_page_records", "plan_full", "plan_delta",
    "plan_cache",  "plan_us",      "plan_requests", "srv_us",
    "srv_requests", "srv_bytes_out", "mine_iterations", "shard_iterations",
};

}  // namespace

Counters ReadCounters() {
  const setm::obs::MetricsSnapshot snap =
      setm::obs::MetricsRegistry::Global()->Snapshot();
  Counters c{};
  for (size_t i = 0; i < kNumCtr; ++i) {
    const Source& s = kSources[i];
    if (s.kind == Kind::kCounter) {
      c[i] = snap.CounterValue(s.metric);
      continue;
    }
    const setm::obs::HistogramSnapshot* h = snap.FindHistogram(s.metric);
    if (h != nullptr) c[i] = s.kind == Kind::kHistogramSum ? h->sum : h->count;
  }
  return c;
}

Counters Minus(const Counters& after, const Counters& before) {
  Counters d{};
  for (size_t i = 0; i < kNumCtr; ++i) d[i] = after[i] - before[i];
  return d;
}

void AddTo(Counters* total, const Counters& delta) {
  for (size_t i = 0; i < kNumCtr; ++i) (*total)[i] += delta[i];
}

int64_t NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int Tracer::Begin(const std::string& name, int parent, int op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  begin_counters_.push_back(ReadCounters());
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_us = NowUs();
  span.delta = Minus(ReadCounters(), begin_counters_[static_cast<size_t>(id)]);
}

int Tracer::Add(const std::string& name, int64_t start_us, int64_t end_us,
                int parent, int op, const Counters& delta) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.parent = parent;
  span.op = op;
  span.delta = delta;
  spans_.push_back(std::move(span));
  begin_counters_.push_back(Counters{});
  return static_cast<int>(spans_.size()) - 1;
}

std::string Tracer::SelfTimeTable() const {
  std::vector<int64_t> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  struct Agg {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_ms += static_cast<double>(s.end_us - s.start_us) / 1e3;
    a.self_ms += static_cast<double>(s.end_us - s.start_us - child_us[i]) / 1e3;
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %7s %14s %14s\n", "span", "count",
                "mean_total_ms", "mean_self_ms");
  out << line;
  for (const auto& [name, a] : by_name) {
    const double n = static_cast<double>(a.count);
    std::snprintf(line, sizeof(line), "%-28s %7zu %14.3f %14.3f\n",
                  name.c_str(), a.count, a.total_ms / n, a.self_ms / n);
    out << line;
  }
  return out.str();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"counters\": {";
    bool first = true;
    for (size_t c = 0; c < kNumCtr; ++c) {
      if (s.delta[c] == 0) continue;
      out << (first ? "" : ", ") << "\"" << kShortNames[c]
          << "\": " << s.delta[c];
      first = false;
    }
    out << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string DescribeSample(const std::vector<double>& v, const char* unit) {
  char buf[160];
  int n = std::snprintf(buf, sizeof(buf), "n=%zu p50=%.3f%s", v.size(),
                        Median(v), unit);
  for (double q : {0.99, 0.95, 0.90, 0.75}) {
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                    " p%.0f=%.3f%s", q * 100, Quantile(v, q), unit);
      return buf;
    }
  }
  std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                " (no tail percentile: fewer than 10 samples beyond p75)");
  return buf;
}

std::string DeterministicCounts::ToString() const {
  std::string out;
  for (const auto& [name, value] : values) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(value);
  }
  return out;
}

void RunRecord::Fail(const std::string& message) {
  ++failed;
  if (errors.size() < 5) errors.push_back(message);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
