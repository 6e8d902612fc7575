// S2 — scale-out: the distributed count coordinator over 1/2/4/8
// in-process shards (post-paper: Houtsma & Swami ran SETM on one database;
// this measures the partitioned-databases reading of their Section 5 once
// SALES is split at transaction boundaries across shard databases).
//
// Expected shape: speedup while per-shard counting dominates, flattening as
// the coordinator's serial merge of partial C_k counts grows — the same
// Amdahl curve as thread scaling, but with the merge crossing a (here
// in-process) shard boundary. Every configuration self-checks bit-identity
// against single-node SETM, and a deliberately failing shard must turn the
// whole run into Unavailable — never into wrong output.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "shard/coordinator.h"
#include "shard/local_backend.h"

namespace setm {
namespace {

using shard::LocalShardBackend;
using shard::ShardBackend;
/// Row-balanced split at transaction boundaries (the shardctl split rule),
/// each slice loaded into its own SALES table of `db`, s0, s1, ...: the
/// names of the tables.
std::vector<std::string> LoadSlices(Database* db, const TransactionDb& txns,
                                    size_t num_shards) {
  size_t total_rows = 0;
  for (const Transaction& t : txns) total_rows += t.items.size();
  std::vector<std::string> names;
  size_t begin = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const size_t target = (total_rows + num_shards - 1) / num_shards;
    TransactionDb slice;
    size_t rows = 0;
    while (begin < txns.size() && (rows < target || slice.empty()) &&
           txns.size() - begin > num_shards - shard - 1) {
      rows += txns[begin].items.size();
      slice.push_back(txns[begin]);
      ++begin;
    }
    names.push_back("s" + std::to_string(shard));
    SETM_CHECK(
        LoadSalesTable(db, names.back(), slice, TableBacking::kMemory).ok());
  }
  return names;
}

/// This run's observations only: the slot histograms are process-cumulative,
/// so each configuration subtracts its before-snapshot bucket-wise.
obs::HistogramSnapshot Diff(const obs::HistogramSnapshot& before,
                            const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.buckets.resize(after.buckets.size());
  for (size_t i = 0; i < after.buckets.size(); ++i) {
    d.buckets[i] =
        after.buckets[i] - (i < before.buckets.size() ? before.buckets[i] : 0);
  }
  return d;
}

/// A shard whose disk fails on the second iteration's pass.
class DyingShard : public ShardBackend {
 public:
  explicit DyingShard(Database* db) : real_(db, "inner") {}
  const std::string& name() const override { return name_; }
  Status BeginRun(const shard::ShardRunOptions& options) override {
    return real_.BeginRun(options);
  }
  Result<shard::ShardReply> CountFirstIteration() override {
    return real_.CountFirstIteration();
  }
  Result<shard::ShardReply> ApplyGlobalCk(
      size_t k, const std::vector<CandidateKey>& ck) override {
    if (k >= 2) return Status::IOError("injected disk failure");
    return real_.ApplyGlobalCk(k, ck);
  }
  Status EndRun() override { return real_.EndRun(); }
  Result<shard::ShardHealth> Health() override {
    return shard::ShardHealth{};
  }
  void BindTable(std::string table) { real_.BindTable(std::move(table)); }

 private:
  std::string name_ = "dying-shard";
  LocalShardBackend real_;
};

int Run(bool smoke) {
  bench::Banner(
      "shard_scaling",
      "ROADMAP: scale-out — distributed count over shard databases",
      "speedup with shard count, flattening at the serial C_k merge; "
      "bit-identical patterns at every shard count; a failing shard "
      "yields Unavailable, never wrong output");

  QuestOptions gen;
  gen.num_transactions = smoke ? 2000 : 40000;
  gen.avg_transaction_size = 10;
  gen.num_items = 300;
  gen.num_patterns = 50;
  gen.seed = 7;
  const TransactionDb txns = QuestGenerator(gen).Generate();

  MiningOptions options;
  options.min_support = 0.01;

  WallTimer base_timer;
  const MiningResult baseline = bench::RunAlgo("setm", txns, options);
  const double base_seconds = base_timer.ElapsedSeconds();
  std::printf("\nsingle-node setm: %.3fs, %zu patterns\n\n", base_seconds,
              baseline.itemsets.TotalPatterns());

  std::printf("%-8s %12s %10s %12s %8s\n", "shards", "time(s)", "speedup",
              "patterns", "match");
  auto* registry = obs::MetricsRegistry::Global();
  for (size_t num_shards : {1, 2, 4, 8}) {
    Database db;
    std::vector<std::unique_ptr<LocalShardBackend>> owned;
    std::vector<ShardBackend*> backends;
    const std::vector<std::string> tables = LoadSlices(&db, txns, num_shards);
    for (size_t i = 0; i < tables.size(); ++i) {
      auto backend = std::make_unique<LocalShardBackend>(
          &db, "s" + std::to_string(i));
      backend->BindTable(tables[i]);
      backends.push_back(backend.get());
      owned.push_back(std::move(backend));
    }

    std::vector<obs::Histogram*> lat(num_shards);
    std::vector<obs::HistogramSnapshot> before(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      lat[i] = registry->GetHistogram(
          "setm_shard_s" + std::to_string(i) + "_lcount_micros",
          "Coordinator-observed latency of each per-iteration call to shard "
          "slot " + std::to_string(i));
      before[i] = lat[i]->Snapshot();
    }

    WorkerPool pool(num_shards);
    shard::CoordinatorOptions coord;
    coord.pool = &pool;
    WallTimer timer;
    auto result = shard::DistributedMine(backends, options, coord);
    const double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "distributed mine failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const bool match = result.value().itemsets == baseline.itemsets;
    std::printf("%-8zu %12.3f %9.2fx %12zu %8s\n", num_shards, seconds,
                base_seconds / seconds,
                result.value().itemsets.TotalPatterns(),
                match ? "yes" : "NO");
    for (size_t i = 0; i < num_shards; ++i) {
      const obs::HistogramSnapshot h = Diff(before[i], lat[i]->Snapshot());
      std::printf("         shard s%zu call latency: p50 <= %lluus, "
                  "p99 <= %lluus (%llu calls)\n",
                  i,
                  static_cast<unsigned long long>(h.Quantile(0.5)),
                  static_cast<unsigned long long>(h.Quantile(0.99)),
                  static_cast<unsigned long long>(h.count));
    }
    if (!match) {
      std::fprintf(stderr, "shard count %zu changed the result!\n",
                   num_shards);
      return 1;
    }
  }

  // A failing shard must fail the whole run with Unavailable naming it —
  // the coordinator never silently drops a shard's transactions.
  {
    Database db;
    const std::vector<std::string> tables = LoadSlices(&db, txns, 3);
    LocalShardBackend s0(&db, "s0");
    s0.BindTable(tables[0]);
    LocalShardBackend s1(&db, "s1");
    s1.BindTable(tables[1]);
    DyingShard bad(&db);
    bad.BindTable(tables[2]);
    auto result =
        shard::DistributedMine({&s0, &s1, &bad}, options, {});
    if (result.ok() || !result.status().IsUnavailable() ||
        result.status().message().find("dying-shard") == std::string::npos) {
      std::fprintf(stderr,
                   "down-shard run should be Unavailable naming the shard, "
                   "got: %s\n",
                   result.ok() ? "OK" : result.status().ToString().c_str());
      return 1;
    }
    std::printf("\ndown-shard run: %s\n", result.status().ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace setm

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return setm::Run(smoke);
}
