// setm_perfbench — the repo benchmark's measuring binary. run.py builds it
// and invokes it once per workload run:
//
//   setm_perfbench --workload mine_heap|mine_mem_par|serve_append
//                  --seed N --seconds S --trace 0|1 --workdir DIR
//                  [--state-dir DIR] [--trace-out FILE]
//
// It prints a human-readable report and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit code 0
// only when every op was verified and the deterministic counts repeated.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mine_heap|mine_mem_par|serve_append "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--state-dir DIR] [--trace-out FILE]\n",
               argv0);
  return 2;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<Metric> EndToEnd(const RunRecord& r) {
  std::vector<double> op_ms;
  Counters total{};
  for (const OpSample& op : r.ops) {
    op_ms.push_back(op.ms);
    AddTo(&total, op.delta);
  }
  const double n = static_cast<double>(r.ops.size());
  return {
      {"setup_s", "s", Median(r.setup_s)},
      {"ops_per_s", "1/s", Ratio(n, r.window_s)},
      {"op_p50_ms", "ms", Median(op_ms)},
      {"peak_rss_mb", "MiB", r.peak_rss_mb},
      {"pages_per_op", "pages",
       Ratio(static_cast<double>(total[kPageReads] + total[kPageWrites]), n)},
  };
}

std::vector<Metric> PerLayer(const RunRecord& r) {
  std::vector<double> op_ms;
  Counters t{};
  double op_us = 0.0;
  for (const OpSample& op : r.ops) {
    op_ms.push_back(op.ms);
    op_us += op.ms * 1e3;
    AddTo(&t, op.delta);
  }
  const double n = static_cast<double>(r.ops.size());
  auto per_op = [&](Ctr c) { return Ratio(static_cast<double>(t[c]), n); };
  auto v = [&](Ctr c) { return static_cast<double>(t[c]); };
  auto layer = [&](const std::string& name) {
    auto it = r.layer.find(name);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  const double fetches = v(kPoolHits) + v(kPoolMisses);
  std::vector<Metric> m = {
      {"storage.pool_fetches", "count", Ratio(fetches, n)},
      {"storage.pool_hit_ratio", "ratio", Ratio(v(kPoolHits), fetches)},
      {"storage.page_reads", "pages", per_op(kPageReads)},
      {"storage.page_writes", "pages", per_op(kPageWrites)},
      {"storage.evictions", "count", per_op(kPoolEvictions)},
      {"storage.dirty_writebacks", "count", per_op(kPoolDirtyWritebacks)},
      {"exec.sort_rows", "rows", per_op(kSortRows)},
      {"exec.sort_spilled_runs", "count", per_op(kSortSpilledRuns)},
      {"exec.sort_merge_passes", "count", per_op(kSortMergePasses)},
      {"exec.worker_busy_ms", "ms", per_op(kWorkerBusyUs) / 1e3},
      {"exec.worker_queue_wait_ms", "ms", per_op(kWorkerWaitUs) / 1e3},
      {"exec.worker_parallelism", "ratio", Ratio(v(kWorkerBusyUs), op_us)},
      {"core.iterations", "count", per_op(kMineIterations)},
      {"core.rprime_rows", "rows", layer("core.rprime_rows")},
      {"core.rk_rows", "rows", layer("core.rk_rows")},
      {"core.ck_rows", "rows", layer("core.ck_rows")},
      {"core.candidate_yield", "ratio", layer("core.candidate_yield")},
  };
  for (int k = 1; k <= 9; ++k) {
    const std::string name = "core.iter_k" + std::to_string(k) + "_ms";
    m.push_back({name, "ms", layer(name)});
  }
  const double scripts = r.scripts == 0 ? 1.0 : static_cast<double>(r.scripts);
  const std::vector<Metric> rest = {
      {"core.plan_full_mine", "count", v(kPlanFullMine) / scripts},
      {"core.plan_delta_derive", "count", v(kPlanDeltaDerive) / scripts},
      {"core.plan_cache_filter", "count", v(kPlanCacheFilter) / scripts},
      {"core.plan_request_ms_mean", "ms",
       Ratio(v(kPlanRequestUs), v(kPlanRequests)) / 1e3},
      // Per op; every serve_append op holds exactly one APPEND.
      {"persist.wal_bytes_per_append", "bytes", per_op(kWalBytes)},
      {"persist.wal_fsyncs_per_append", "count", per_op(kWalFsyncs)},
      {"persist.wal_page_records_per_append", "count",
       per_op(kWalPageRecords)},
      {"persist.wal_bytes_per_user_byte", "ratio",
       Ratio(v(kWalBytes), static_cast<double>(r.user_bytes))},
      {"net.requery_rtt_p50_us", "us", layer("net.requery_rtt_p50_us")},
      {"net.server_request_us_mean", "us",
       Ratio(v(kSrvRequestUs), v(kSrvRequests))},
      {"net.loop_overhead_us", "us", layer("net.loop_overhead_us")},
      {"net.bytes_out_per_request", "bytes",
       Ratio(v(kSrvBytesOut), v(kSrvRequests))},
      {"relational.load_s", "s", Median(r.load_s)},
      {"shard.iterations", "count", per_op(kShardIterations)},
      {"append_p50_ms", "ms", layer("append_p50_ms")},
      {"trace.op_p50_ms", "ms", Median(op_ms)},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Checks the within-run repeats and the run-to-run record at this seed.
/// Returns "" when the counts repeat, else what differed.
std::string CheckDeterminism(const RunRecord& r, const std::string& state_file,
                             std::string* note) {
  for (size_t i = 1; i < r.repeats.size(); ++i) {
    if (!(r.repeats[i] == r.repeats[0])) {
      return "sample " + std::to_string(i) + " {" + r.repeats[i].ToString() +
             "} differs from sample 0 {" + r.repeats[0].ToString() + "}";
    }
  }
  *note = "repeated across " + std::to_string(r.repeats.size()) + " samples";
  if (state_file.empty()) return "";
  const std::string current = r.run_counts.ToString();
  std::ifstream in(state_file);
  std::string previous;
  if (in && std::getline(in, previous)) {
    if (previous != current) {
      return "run counts {" + current + "} differ from the previous run at "
             "this seed {" + previous + "}";
    }
    *note += ", equal to the previous run at this seed";
    return "";
  }
  std::ofstream out(state_file);
  out << current << "\n";
  *note += ", recorded for the next run at this seed";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  int trace = -1;
  std::string state_dir;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--workdir") {
      config.workdir = value;
    } else if (key == "--state-dir") {
      state_dir = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  const std::map<std::string,
                 std::function<bool(const Config&, Tracer*, RunRecord*)>>
      workloads = {{"mine_heap", RunMineHeap},
                   {"mine_mem_par", RunMineMemPar},
                   {"serve_append", RunServeAppend}};
  const auto workload = workloads.find(config.workload);
  if (argc % 2 != 1 || workload == workloads.end() || config.seconds < 1 ||
      (trace != 0 && trace != 1) || config.workdir.empty()) {
    return Usage(argv[0]);
  }

  Tracer tracer(trace == 1);
  RunRecord record;
  std::printf("workload=%s seed=%llu seconds=%d trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              trace);
  if (!workload->second(config, &tracer, &record)) {
    for (const std::string& e : record.errors) {
      std::fprintf(stderr, "setup failed: %s\n", e.c_str());
    }
    return 1;
  }

  std::vector<double> op_ms;
  for (const OpSample& op : record.ops) op_ms.push_back(op.ms);
  std::printf("setup_s replicates:");
  for (double s : record.setup_s) std::printf(" %.3f", s);
  std::printf("\nop latency: %s\nop latencies ms:",
              DescribeSample(op_ms, "ms").c_str());
  for (double ms : op_ms) std::printf(" %.1f", ms);
  std::printf("\n");
  std::printf("harness_s (inputs and reference mines): %.3f\n",
              record.harness_s);
  std::printf("fail_frac: %.6f (%llu of %llu ops)\n",
              Ratio(static_cast<double>(record.failed),
                    static_cast<double>(record.attempted)),
              static_cast<unsigned long long>(record.failed),
              static_cast<unsigned long long>(record.attempted));
  for (const std::string& e : record.errors) {
    std::printf("FAILED: %s\n", e.c_str());
  }

  std::string state_file;
  if (!state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(state_dir, ec);
    state_file = state_dir + "/" + config.workload + "-seed" +
                 std::to_string(config.seed) + "-s" +
                 std::to_string(config.seconds) + ".txt";
  }
  std::string note;
  const std::string nondeterminism =
      CheckDeterminism(record, state_file, &note);
  if (nondeterminism.empty()) {
    std::printf("deterministic counts: %s (%s)\n",
                record.run_counts.ToString().c_str(), note.c_str());
  } else {
    std::printf("NONDETERMINISTIC COUNTS: %s\n", nondeterminism.c_str());
  }

  const std::vector<Metric> metrics =
      trace == 1 ? PerLayer(record) : EndToEnd(record);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (tracer.enabled()) {
    std::printf("\nspans (benchmark-side, per call into a layer):\n%s",
                tracer.SelfTimeTable().c_str());
    if (!trace_out.empty()) {
      if (tracer.WriteJson(trace_out)) {
        std::printf("trace written to %s\n", trace_out.c_str());
      } else {
        std::printf("could not write trace to %s\n", trace_out.c_str());
      }
    }
  }

  const bool correct = record.failed == 0 && record.attempted > 0 &&
                       nondeterminism.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << record.attempted
       << ", \"failed\": " << record.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << Number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}
