// The three workloads. Each calls only public entry points the engine keeps:
// MinerRegistry::Create("setm", ...), LoadSalesTable, Database::Open /
// Commit, MiningObserver, net::MiningServer / net::BlockingClient and the
// metrics registry. Wall time and registry deltas are taken around those
// calls, never inside them.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <random>
#include <sched.h>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/miner_registry.h"
#include "core/rules.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "datagen/retail_generator.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

namespace perfbench {
namespace {

using setm::Database;
using setm::DatabaseOptions;
using setm::FrequentItemsets;
using setm::IterationStats;
using setm::Miner;
using setm::MinerRegistry;
using setm::MiningRequest;
using setm::SetmOptions;
using setm::Table;
using setm::TableBacking;
using setm::TransactionDb;

/// Set-up runs this many times per run; setup_s is their median and the
/// last one is kept for the timed window.
constexpr int kSetupReplicates = 3;
/// A mine workload times at least this many ops.
constexpr size_t kMinMineOps = 3;
/// The independent miner every answer is checked against.
constexpr const char* kReferenceAlgo = "apriori";

std::string Str(const setm::Status& status) { return status.ToString(); }

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

/// Normalized frequent itemsets of `txns` at `min_support` from the
/// reference miner, over its own in-memory database.
setm::Result<FrequentItemsets> ReferenceMine(const TransactionDb& txns,
                                             double min_support) {
  Database db;
  auto miner_or = MinerRegistry::Create(kReferenceAlgo, &db);
  if (!miner_or.ok()) return miner_or.status();
  MiningRequest request;
  request.transactions = &txns;
  request.options.min_support = min_support;
  auto result_or = miner_or.value()->Mine(request);
  if (!result_or.ok()) return result_or.status();
  FrequentItemsets itemsets = std::move(result_or.value().itemsets);
  itemsets.Normalize();
  return itemsets;
}

/// The registry counts that repeat exactly at a fixed seed. Page reads and
/// writes are left out when `concurrent`: partitions running on several
/// workers share one temp buffer pool, so which pages get evicted depends
/// on thread interleaving (a few pages in ten thousand).
std::vector<std::pair<std::string, uint64_t>> CountsOf(const Counters& d,
                                                       bool concurrent) {
  std::vector<std::pair<std::string, uint64_t>> counts;
  if (!concurrent) counts.push_back({"pages", d[kPageReads] + d[kPageWrites]});
  counts.push_back({"pool_fetches", d[kPoolHits] + d[kPoolMisses]});
  counts.push_back({"sort_rows", d[kSortRows]});
  counts.push_back({"wal_bytes", d[kWalBytes]});
  counts.push_back({"wal_fsyncs", d[kWalFsyncs]});
  counts.push_back({"wal_page_records", d[kWalPageRecords]});
  return counts;
}

// ---------------------------------------------------------------- mining ---

/// Pins the calling thread to the `op`-th CPU (cycling) of the process's
/// original affinity mask. On a shared VM each vCPU runs at its own,
/// drifting speed, and a single-threaded op otherwise stays on one vCPU for
/// a whole run; cycling spreads every run evenly over all of them.
void PinToCpuOf(int op) {
  static const cpu_set_t original = [] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    sched_getaffinity(0, sizeof(mask), &mask);
    return mask;
  }();
  const int count = CPU_COUNT(&original);
  if (count < 2) return;
  int nth = op % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original) && nth-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

/// Timestamps each iteration from the observer callback: iteration k spans
/// from the previous callback (or the op start) to this one.
class IterationClock : public setm::MiningObserver {
 public:
  IterationClock(Tracer* tracer, int parent_span, int op)
      : tracer_(tracer), parent_span_(parent_span), op_(op) {
    last_us_ = NowUs();
    if (tracer_->enabled()) last_counters_ = ReadCounters();
  }

  bool OnIteration(const IterationStats& stats) override {
    const int64_t now = NowUs();
    iterations.push_back(stats);
    iteration_ms.push_back(static_cast<double>(now - last_us_) / 1e3);
    if (tracer_->enabled()) {
      const Counters counters = ReadCounters();
      tracer_->Add("mine.iter_k" + std::to_string(stats.k), last_us_, now,
                   parent_span_, op_, Minus(counters, last_counters_));
      last_counters_ = counters;
    }
    last_us_ = now;
    return true;
  }

  std::vector<IterationStats> iterations;
  std::vector<double> iteration_ms;

 private:
  Tracer* tracer_;
  int parent_span_;
  int op_;
  int64_t last_us_ = 0;
  Counters last_counters_{};
};

/// Quest's pattern table is drawn from its seed, and with 60 patterns the
/// table alone moves a mine's cost by half from one seed to the next. So
/// the table is fixed: the pool below is generated once at this seed, and
/// --seed draws the workload's transactions from it. Seeds then differ only
/// by sampling noise, the way two samples of one shop's baskets do.
constexpr uint64_t kQuestTableSeed = 42;
constexpr size_t kQuestPoolFactor = 4;

/// `n` transactions drawn without replacement from a Quest pool of
/// kQuestPoolFactor * n, renumbered 1..n in pool order.
TransactionDb SampleQuest(setm::QuestOptions options, size_t n,
                          uint64_t seed) {
  options.num_transactions = static_cast<uint32_t>(n * kQuestPoolFactor);
  options.seed = kQuestTableSeed;
  TransactionDb pool = setm::QuestGenerator(options).Generate();
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);  // Fisher-Yates on the raw engine: portable
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng() % (i + 1)]);
  }
  order.resize(n);
  std::sort(order.begin(), order.end());
  TransactionDb out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::move(pool[order[i]]));
    out.back().id = static_cast<setm::TransactionId>(i + 1);
  }
  return out;
}

struct MineSpec {
  setm::QuestOptions quest;  ///< num_transactions: the sample size
  uint64_t seed;
  DatabaseOptions db;  ///< file_path is filled in per replicate
  bool file_backed;
  SetmOptions knobs;
  double min_support;
  /// Timed ops per second of --seconds. The op count is fixed by the
  /// argument, not by the clock: temp pages of sort spills are never freed,
  /// so RSS grows with every op, and a clock-bound loop would tie
  /// peak_rss_mb to the machine's speed.
  double ops_per_second;
};

/// One mine op. Appends the sample to `record->ops` when `timed`, verifies
/// the answer against `reference`, and returns the per-iteration clock.
IterationClock MineOp(Miner* miner, const Table* sales, const MineSpec& spec,
                      const FrequentItemsets& reference, int op, bool timed,
                      Tracer* tracer, RunRecord* record) {
  if (spec.knobs.num_threads == 1) PinToCpuOf(op);
  const int span = tracer->Begin("mine", -1, op);
  IterationClock clock(tracer, span, op);
  MiningRequest request;
  request.table = sales;
  request.options.min_support = spec.min_support;
  request.options.observer = &clock;

  const Counters before = ReadCounters();
  const int64_t start = NowUs();
  auto result_or = miner->Mine(request);
  const int64_t end = NowUs();
  const Counters after = ReadCounters();
  tracer->End(span);

  if (timed) {
    ++record->attempted;
    record->ops.push_back(
        {static_cast<double>(end - start) / 1e3, Minus(after, before)});
  }
  const std::string label = "op " + std::to_string(op);
  if (!result_or.ok()) {
    record->Fail(label + ": " + Str(result_or.status()));
    return clock;
  }
  FrequentItemsets itemsets = std::move(result_or.value().itemsets);
  itemsets.Normalize();
  if (!(itemsets == reference)) {
    record->Fail(label + ": " + std::to_string(itemsets.TotalPatterns()) +
                 " patterns, reference has " +
                 std::to_string(reference.TotalPatterns()));
  } else if (clock.iterations.size() !=
             result_or.value().iterations.size()) {
    record->Fail(label + ": observer saw " +
                 std::to_string(clock.iterations.size()) + " iterations");
  }
  return clock;
}

bool RunMine(const MineSpec& spec, const Config& config, Tracer* tracer,
             RunRecord* record) {
  setm::WallTimer harness;
  const TransactionDb txns =
      SampleQuest(spec.quest, spec.quest.num_transactions, spec.seed);
  auto reference_or = ReferenceMine(txns, spec.min_support);
  record->harness_s += harness.ElapsedSeconds();
  if (!reference_or.ok()) {
    record->Fail("reference mine: " + Str(reference_or.status()));
    return false;
  }
  const FrequentItemsets& reference = reference_or.value();

  std::unique_ptr<Database> db;
  std::unique_ptr<Miner> miner;
  const Table* sales = nullptr;
  int op = 0;
  for (int rep = 0; rep < kSetupReplicates; ++rep) {
    if (db != nullptr) {
      miner.reset();
      const setm::Status closed = db->Close();
      if (!closed.ok()) record->Fail("Close: " + Str(closed));
      db.reset();
    }
    DatabaseOptions db_options = spec.db;
    if (spec.file_backed) {
      ResetDir(config.workdir);
      db_options.file_path = config.workdir + "/sales.db";
    }
    setm::WallTimer setup;
    const int setup_span = tracer->Begin("setup", -1, -1);
    int span = tracer->Begin("setup.db_open", setup_span, -1);
    auto db_or = Database::Open(db_options);
    tracer->End(span);
    if (!db_or.ok()) {
      record->Fail("Database::Open: " + Str(db_or.status()));
      return false;
    }
    db = std::move(db_or).value();

    span = tracer->Begin("setup.load", setup_span, -1);
    setm::WallTimer load;
    auto sales_or = setm::LoadSalesTable(db.get(), "sales", txns,
                                         spec.knobs.storage);
    record->load_s.push_back(load.ElapsedSeconds());
    tracer->End(span);
    if (!sales_or.ok()) {
      record->Fail("LoadSalesTable: " + Str(sales_or.status()));
      return false;
    }
    sales = sales_or.value();

    span = tracer->Begin("setup.commit", setup_span, -1);
    const setm::Status committed = db->Commit();
    tracer->End(span);
    if (!committed.ok()) {
      record->Fail("Commit: " + Str(committed));
      return false;
    }

    auto miner_or = MinerRegistry::Create("setm", db.get(), spec.knobs);
    if (!miner_or.ok()) {
      record->Fail("MinerRegistry::Create: " + Str(miner_or.status()));
      return false;
    }
    miner = std::move(miner_or).value();

    // The warm-up op: page counts only repeat from the second op on.
    const size_t failed = record->failed;
    MineOp(miner.get(), sales, spec, reference, op++, false, tracer, record);
    tracer->End(setup_span);
    record->setup_s.push_back(setup.ElapsedSeconds());
    if (record->failed != failed) return false;
  }

  const size_t ops = std::max(
      kMinMineOps, static_cast<size_t>(std::ceil(config.seconds *
                                                 spec.ops_per_second)));
  std::vector<IterationClock> clocks;
  setm::WallTimer window;
  while (record->ops.size() < ops) {
    clocks.push_back(MineOp(miner.get(), sales, spec, reference, op++, true,
                            tracer, record));
  }
  record->window_s = window.ElapsedSeconds();
  record->peak_rss_mb = PeakRssMb();

  // Per-op mining counts and per-iteration times (median over ops).
  std::vector<std::vector<double>> iter_ms(9);
  for (size_t i = 0; i < clocks.size(); ++i) {
    uint64_t rprime = 0, rk = 0, ck = 0;
    for (const IterationStats& s : clocks[i].iterations) {
      rprime += s.r_prime_rows;
      rk += s.r_rows;
      ck += s.c_size;
    }
    for (size_t k = 0; k < clocks[i].iteration_ms.size() && k < 9; ++k) {
      iter_ms[k].push_back(clocks[i].iteration_ms[k]);
    }
    DeterministicCounts counts;
    counts.values =
        CountsOf(record->ops[i].delta, spec.knobs.num_threads > 1);
    counts.values.push_back({"rprime_rows", rprime});
    counts.values.push_back({"rk_rows", rk});
    counts.values.push_back({"ck_rows", ck});
    counts.values.push_back({"iterations", clocks[i].iterations.size()});
    record->repeats.push_back(counts);
    if (i == 0) {
      record->layer["core.rprime_rows"] = static_cast<double>(rprime);
      record->layer["core.rk_rows"] = static_cast<double>(rk);
      record->layer["core.ck_rows"] = static_cast<double>(ck);
      record->layer["core.candidate_yield"] =
          rprime == 0 ? 0.0
                      : static_cast<double>(rk) / static_cast<double>(rprime);
    }
  }
  for (size_t k = 0; k < iter_ms.size(); ++k) {
    record->layer["core.iter_k" + std::to_string(k + 1) + "_ms"] =
        Median(iter_ms[k]);
  }
  if (!record->repeats.empty()) record->run_counts = record->repeats.front();

  miner.reset();
  const setm::Status closed = db->Close();
  if (!closed.ok()) record->Fail("Close: " + Str(closed));
  db.reset();
  std::error_code ec;
  std::filesystem::remove_all(config.workdir, ec);
  return true;
}

// --------------------------------------------------------------- serving ---

constexpr size_t kAppendBatch = 250;
/// The fixed script: this many rounds on a fresh database per pass.
constexpr size_t kScriptRounds = 40;
/// Passes per run follow --seconds at this many rounds per second (and at
/// least kSetupReplicates), so every run at a given --seconds sends the
/// same requests against the same growing table.
constexpr size_t kRoundsPerSecond = 12;
constexpr const char* kBaseSupport = "0.5%";
constexpr double kBaseSupportFraction = 0.005;
const std::vector<std::pair<std::string, double>> kRequerySupports = {
    {"1%", 0.01}, {"2%", 0.02}, {"5%", 0.05}};
constexpr double kRuleConfidence = 0.60;
constexpr const char* kRulesCommand = "RULES 60";

/// Every response of one script round (APPEND, the MINEs, RULES), kept for
/// verification after the timed window.
using RoundResponses = std::vector<setm::net::ClientResponse>;

struct ServeState {
  std::unique_ptr<Database> db;
  std::unique_ptr<setm::net::MiningServer> server;
  std::unique_ptr<setm::net::BlockingClient> client;

  void Shutdown(RunRecord* record) {
    if (client != nullptr) {
      (void)client->Exec("QUIT");
      client.reset();
    }
    if (server != nullptr) {
      const setm::Status stopped = server->Stop();
      if (!stopped.ok()) record->Fail("server Stop: " + Str(stopped));
      server.reset();
    }
    if (db != nullptr) {
      const setm::Status closed = db->Close();
      if (!closed.ok()) record->Fail("Close: " + Str(closed));
      db.reset();
    }
  }
};

std::string AppendRequest(const TransactionDb& batch) {
  std::string out = std::string("APPEND sales SUPPORT ") + kBaseSupport;
  for (const setm::Transaction& t : batch) {
    out += '\n';
    out += std::to_string(t.id);
    for (setm::ItemId item : t.items) {
      out += ' ';
      out += std::to_string(item);
    }
  }
  out += "\n.";
  return out;
}

/// Sends one request (possibly multi-line) and reads its response; returns
/// the client round trip in microseconds, or -1 on a transport error.
double Exchange(setm::net::BlockingClient* client, const std::string& request,
                setm::net::ClientResponse* response, std::string* error) {
  const int64_t start = NowUs();
  const setm::Status sent = client->SendLine(request);
  if (!sent.ok()) {
    *error = Str(sent);
    return -1;
  }
  auto response_or = client->ReadResponse();
  const int64_t end = NowUs();
  if (!response_or.ok()) {
    *error = Str(response_or.status());
    return -1;
  }
  *response = std::move(response_or).value();
  return static_cast<double>(end - start);
}

/// Request-level samples of the timed script.
struct ScriptSamples {
  std::vector<double> append_ms;
  std::vector<double> requery_us;
  double client_job_us = 0.0;  ///< sum of client round trips of job verbs
};

/// One round: APPEND a batch at the base support (delta-derive), re-query
/// at three higher supports (cache-filter), then RULES on the last answer.
bool ServeRound(setm::net::BlockingClient* client, const TransactionDb& batch,
                int op, Tracer* tracer, RoundResponses* out,
                ScriptSamples* samples, RunRecord* record) {
  const int round_span = tracer->Begin("round", -1, op);
  std::vector<std::pair<std::string, std::string>> requests;  // span, text
  requests.emplace_back("round.append", AppendRequest(batch));
  for (const auto& support : kRequerySupports) {
    requests.emplace_back("round.requery",
                          "MINE sales SUPPORT " + support.first);
  }
  requests.emplace_back("round.rules", kRulesCommand);

  out->assign(requests.size(), {});
  for (size_t i = 0; i < requests.size(); ++i) {
    const int span = tracer->Begin(requests[i].first, round_span, op);
    std::string error;
    const double us =
        Exchange(client, requests[i].second, &(*out)[i], &error);
    tracer->End(span);
    if (us < 0) {
      record->Fail("op " + std::to_string(op) + " " + requests[i].first +
                   ": " + error);
      tracer->End(round_span);
      return false;
    }
    samples->client_job_us += us;
    if (i == 0) {
      samples->append_ms.push_back(us / 1e3);
    } else if (i <= kRequerySupports.size()) {
      samples->requery_us.push_back(us);
    }
  }
  tracer->End(round_span);
  return true;
}

FrequentItemsets FilterBySupport(const FrequentItemsets& base,
                                 double min_support) {
  setm::MiningOptions options;
  options.min_support = min_support;
  const int64_t min_count =
      setm::ResolveMinSupportCount(options, base.num_transactions);
  FrequentItemsets out;
  out.num_transactions = base.num_transactions;
  for (size_t k = 1; k <= base.MaxSize(); ++k) {
    for (const setm::PatternCount& p : base.OfSize(k)) {
      if (p.count >= min_count) out.Add(p.items, p.count);
    }
  }
  out.Normalize();
  return out;
}

/// Checks one round's responses against a direct reference mine of the
/// same rows. Returns the first mismatch, or "" when all agree.
std::string CheckRound(const RoundResponses& r,
                       const FrequentItemsets& base_answer) {
  if (r.size() != kRequerySupports.size() + 2) return "missing responses";
  for (const auto& response : r) {
    if (!response.ok) return "ERR " + response.code + " " + response.info;
  }
  if (r[0].payload != setm::net::RenderItemsets(base_answer)) {
    return "APPEND answer differs from the reference mine";
  }
  const std::string appended_info =
      "appended=" + std::to_string(kAppendBatch) +
      " patterns=" + std::to_string(base_answer.TotalPatterns()) +
      " transactions=" + std::to_string(base_answer.num_transactions);
  if (r[0].info != appended_info) return "APPEND info '" + r[0].info + "'";
  FrequentItemsets last;
  for (size_t i = 0; i < kRequerySupports.size(); ++i) {
    last = FilterBySupport(base_answer, kRequerySupports[i].second);
    if (r[i + 1].payload != setm::net::RenderItemsets(last)) {
      return "MINE " + kRequerySupports[i].first +
             " differs from the reference mine";
    }
  }
  setm::MiningOptions rule_options;
  rule_options.min_confidence = kRuleConfidence;
  auto rules_or = setm::GenerateRules(last, rule_options);
  if (!rules_or.ok()) return "reference rules: " + Str(rules_or.status());
  if (r.back().payload != setm::FormatRulesCsv(rules_or.value())) {
    return "RULES differs from the reference rules";
  }
  return "";
}

struct ServeData {
  TransactionDb base;                  ///< the first 75%, loaded in set-up
  std::vector<TransactionDb> batches;  ///< APPEND batches from the tail
  std::string cold_expected;           ///< reference answer over `base`
};

/// One pass: a fresh database set up (timed into setup_s, ending with the
/// warm-up round), then the timed script of kScriptRounds rounds.
bool ServePass(const ServeData& data, const Config& config, size_t pass,
               Tracer* tracer, RunRecord* record,
               std::vector<RoundResponses>* responses, ScriptSamples* samples,
               Counters* script) {
  const int first_op = static_cast<int>(pass * (kScriptRounds + 1));
  ServeState state;
  ResetDir(config.workdir);
  setm::WallTimer setup;
  const int setup_span = tracer->Begin("setup", -1, -1);

  DatabaseOptions db_options;
  db_options.file_path = config.workdir + "/sales.db";
  db_options.pool_frames = 8192;  // 32 MiB: the script's working set fits
  int span = tracer->Begin("setup.db_open", setup_span, -1);
  auto db_or = Database::Open(db_options);
  tracer->End(span);
  if (!db_or.ok()) {
    record->Fail("Database::Open: " + Str(db_or.status()));
    return false;
  }
  state.db = std::move(db_or).value();

  span = tracer->Begin("setup.load", setup_span, -1);
  setm::WallTimer load;
  auto sales_or = setm::LoadSalesTable(state.db.get(), "sales", data.base,
                                       TableBacking::kHeap);
  record->load_s.push_back(load.ElapsedSeconds());
  tracer->End(span);
  if (!sales_or.ok()) {
    record->Fail("LoadSalesTable: " + Str(sales_or.status()));
    return false;
  }
  span = tracer->Begin("setup.commit", setup_span, -1);
  setm::Status status = state.db->Commit();
  tracer->End(span);
  if (!status.ok()) {
    record->Fail("Commit: " + Str(status));
    return false;
  }

  span = tracer->Begin("setup.server_start", setup_span, -1);
  setm::net::ServerOptions server_options;
  server_options.port = 0;
  server_options.job_threads = 1;
  auto server_or =
      setm::net::MiningServer::Create(state.db.get(), server_options);
  if (server_or.ok()) {
    state.server = std::move(server_or).value();
    status = state.server->Start();
  } else {
    status = server_or.status();
  }
  if (status.ok()) {
    auto client_or =
        setm::net::BlockingClient::Connect("127.0.0.1", state.server->port());
    if (client_or.ok()) {
      state.client = std::move(client_or).value();
    } else {
      status = client_or.status();
    }
  }
  tracer->End(span);
  if (!status.ok()) {
    record->Fail("server start: " + Str(status));
    state.Shutdown(record);
    return false;
  }

  span = tracer->Begin("setup.cold_mine", setup_span, -1);
  setm::net::ClientResponse cold;
  std::string error;
  const double cold_us = Exchange(
      state.client.get(), std::string("MINE sales SUPPORT ") + kBaseSupport,
      &cold, &error);
  tracer->End(span);
  if (cold_us < 0 || !cold.ok || cold.payload != data.cold_expected) {
    record->Fail("cold MINE: " +
                 (cold_us < 0 ? error
                  : cold.ok   ? std::string("answer differs from the "
                                            "reference mine")
                              : cold.code + " " + cold.info));
    state.Shutdown(record);
    return false;
  }
  ScriptSamples warmup;
  if (!ServeRound(state.client.get(), data.batches[0], first_op, tracer,
                  &(*responses)[0], &warmup, record)) {
    state.Shutdown(record);
    return false;
  }
  tracer->End(setup_span);
  record->setup_s.push_back(setup.ElapsedSeconds());

  const Counters script_before = ReadCounters();
  setm::WallTimer window;
  bool ok = true;
  for (size_t r = 1; r <= kScriptRounds && ok; ++r) {
    ++record->attempted;
    const Counters before = ReadCounters();
    const int64_t start = NowUs();
    ok = ServeRound(state.client.get(), data.batches[r],
                    first_op + static_cast<int>(r), tracer,
                    &(*responses)[r], samples, record);
    const int64_t end = NowUs();
    record->ops.push_back({static_cast<double>(end - start) / 1e3,
                           Minus(ReadCounters(), before)});
  }
  record->window_s += window.ElapsedSeconds();
  *script = Minus(ReadCounters(), script_before);
  state.Shutdown(record);
  return ok;
}

}  // namespace

bool RunMineHeap(const Config& config, Tracer* tracer, RunRecord* record) {
  MineSpec spec{};
  spec.quest.num_transactions = 5000;
  spec.quest.avg_transaction_size = 10;
  spec.quest.avg_pattern_size = 4;
  spec.quest.num_items = 400;
  spec.quest.num_patterns = 60;
  spec.seed = config.seed;
  spec.file_backed = true;  // default 1 MiB pool and 1 MiB sort budget
  spec.knobs.storage = TableBacking::kHeap;
  spec.knobs.count_method = setm::CountMethod::kSortMerge;
  spec.knobs.num_threads = 1;
  spec.min_support = 0.02;
  spec.ops_per_second = 0.8;  // 8 ops at 10 s: two per vCPU on 4 vCPUs
  return RunMine(spec, config, tracer, record);
}

bool RunMineMemPar(const Config& config, Tracer* tracer, RunRecord* record) {
  MineSpec spec{};
  spec.quest.num_transactions = 20000;
  spec.quest.avg_transaction_size = 10;
  spec.quest.avg_pattern_size = 4;
  spec.quest.num_items = 400;
  spec.quest.num_patterns = 60;
  spec.seed = config.seed;
  spec.file_backed = false;
  spec.db.worker_threads = 4;
  spec.knobs.storage = TableBacking::kMemory;
  spec.knobs.count_method = setm::CountMethod::kHash;
  spec.knobs.num_threads = 4;
  spec.min_support = 0.02;
  spec.ops_per_second = 0.3;
  return RunMine(spec, config, tracer, record);
}

bool RunServeAppend(const Config& config, Tracer* tracer, RunRecord* record) {
  setm::WallTimer harness;
  setm::RetailOptions retail;
  retail.seed = config.seed;
  const TransactionDb all = setm::RetailGenerator(retail).Generate();
  ServeData data;
  const size_t base_size = all.size() * 3 / 4;
  data.base.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(
                                                  base_size));
  // Batch 0 is the warm-up round inside set-up; batches 1..kScriptRounds
  // are the timed script.
  for (size_t b = 0; b <= kScriptRounds; ++b) {
    const auto first = all.begin() + static_cast<std::ptrdiff_t>(
                                         base_size + b * kAppendBatch);
    data.batches.emplace_back(first, first + kAppendBatch);
  }
  auto cold_reference_or = ReferenceMine(data.base, kBaseSupportFraction);
  if (!cold_reference_or.ok()) {
    record->Fail("reference mine: " + Str(cold_reference_or.status()));
    return false;
  }
  data.cold_expected = setm::net::RenderItemsets(cold_reference_or.value());
  record->harness_s += harness.ElapsedSeconds();

  // The pass count follows --seconds, never elapsed time.
  const size_t passes = std::max<size_t>(
      kSetupReplicates,
      (static_cast<size_t>(config.seconds) * kRoundsPerSecond +
       kScriptRounds - 1) / kScriptRounds);
  std::vector<std::vector<RoundResponses>> responses(passes);
  ScriptSamples samples;
  Counters script{};
  for (size_t pass = 0; pass < passes; ++pass) {
    responses[pass].resize(kScriptRounds + 1);
    Counters pass_script{};
    const Counters before = ReadCounters();
    const bool ok = ServePass(data, config, pass, tracer, record,
                              &responses[pass], &samples, &pass_script);
    DeterministicCounts counts;
    counts.values = CountsOf(Minus(ReadCounters(), before), false);
    record->repeats.push_back(counts);
    AddTo(&script, pass_script);
    if (pass == 0) {
      record->run_counts.values = CountsOf(pass_script, false);
      record->run_counts.values.push_back(
          {"plan_full_mine", pass_script[kPlanFullMine]});
      record->run_counts.values.push_back(
          {"plan_delta_derive", pass_script[kPlanDeltaDerive]});
      record->run_counts.values.push_back(
          {"plan_cache_filter", pass_script[kPlanCacheFilter]});
    }
    if (!ok) return false;
  }
  record->peak_rss_mb = PeakRssMb();
  record->scripts = passes;

  uint64_t appended_tuples = 0;
  for (size_t r = 1; r <= kScriptRounds; ++r) {
    for (const setm::Transaction& t : data.batches[r]) {
      appended_tuples += t.items.size();
    }
  }
  record->user_bytes = appended_tuples * 8 * passes;
  record->layer["append_p50_ms"] = Median(samples.append_ms);
  record->layer["net.requery_rtt_p50_us"] = Median(samples.requery_us);
  record->layer["net.loop_overhead_us"] =
      script[kSrvRequests] == 0
          ? 0.0
          : (samples.client_job_us -
             static_cast<double>(script[kSrvRequestUs])) /
                static_cast<double>(script[kSrvRequests]);

  // Verification, after the window: each round's answers, in every pass,
  // against a direct reference mine of exactly the rows the server held.
  harness.Restart();
  TransactionDb rows = data.base;
  for (size_t r = 0; r <= kScriptRounds; ++r) {
    rows.insert(rows.end(), data.batches[r].begin(), data.batches[r].end());
    auto reference_or = ReferenceMine(rows, kBaseSupportFraction);
    if (!reference_or.ok()) {
      record->Fail("reference mine: " + Str(reference_or.status()));
      continue;
    }
    for (size_t pass = 0; pass < passes; ++pass) {
      const std::string mismatch =
          CheckRound(responses[pass][r], reference_or.value());
      if (!mismatch.empty()) {
        record->Fail("pass " + std::to_string(pass) + " round " +
                     std::to_string(r) + ": " + mismatch);
      }
    }
  }
  record->harness_s += harness.ElapsedSeconds();
  std::error_code ec;
  std::filesystem::remove_all(config.workdir, ec);
  return true;
}

}  // namespace perfbench
