// setm_mine — command-line association-rule miner.
//
//   setm_mine --input sales.csv [--minsup 1.0] [--minconf 50]
//             [--algo NAME|list] [--storage memory|heap] [--threads N]
//             [--rules single|subsets]
//             [--max-k N] [--pool-frames N] [--stats] [--format text|csv]
//             [--db FILE] [--store PREFIX] [--append FILE.csv]
//             [--incremental] [--fallback PCT] [--explain]
//
// Reads a (trans_id,item) CSV, mines frequent itemsets with the chosen
// algorithm, and prints rules. Every request — cold mine, stored-run
// re-query, append batch — is answered through the MiningPlanner, which
// picks one of three strategies and can explain its choice (--explain):
//
//   cache-filter  a stored run dominates the query: filter the stored
//                 level relations, zero mining iterations;
//   delta-derive  the store is stale but the batch fits the --fallback
//                 budget: FUP-style incremental derivation from the stored
//                 run, then the batch is appended and the store refreshed;
//   full-mine     registry dispatch of --algo, writing the result back
//                 into the store in store mode.
//
// Algorithms are dispatched uniformly through the MinerRegistry: `--algo
// list` enumerates every registered algorithm (one "name<TAB>description"
// line each), and `--algo NAME` runs it — a newly registered algorithm
// needs no CLI change. `--algorithm` is the backward-compatible alias.
// With --format csv the rules come out as machine-readable rows; --stats
// adds per-iteration, I/O and plan accounting.
//
// Incremental modes (SETM only): --store PREFIX materializes the mined
// itemsets as catalog relations (PREFIX_meta, PREFIX_f1, PREFIX_f2, ...);
// --append FILE.csv feeds a second batch of transactions (ids above the
// first file's) and re-derives the combined result — incrementally with
// --incremental (falling back to a full remine when the batch exceeds
// --fallback PCT percent of the combined database), or by a plain full
// remine without it. Rules are printed for the final result.
//
// Persistence: --db FILE puts the whole database — SALES, the stored
// itemset relations and the catalog — in a durable file, so store and
// append can run in *separate invocations*:
//
//   setm_mine --db sales.db --input base.csv --store fi      # process A
//   setm_mine --db sales.db --append delta.csv --incremental # process B
//   setm_mine --db sales.db --store fi --minsup 30           # re-query
//
// Process B reopens the file, finds SALES and the stored run in the
// catalog, and brings both up to date without --input (passing --input at
// reopen is an error — the base data already lives in the file). The
// re-query at a higher support is answered entirely from the stored
// relations (cache-filter), without mining. --db implies --storage heap;
// it requires store mode (--store and/or --append).

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/miner_registry.h"
#include "core/mining_planner.h"
#include "core/rules.h"
#include "core/setm.h"
#include "datagen/transaction_io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace setm;

/// Set by SIGINT/SIGTERM; polled by the per-iteration observer, so a
/// Ctrl-C stops the miner (or rule generator) within one iteration, the
/// scratch relations are dropped, and the database still gets its
/// checkpointing Close() — the same cooperative-cancellation seam the
/// server's disconnect handling uses.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleInterrupt(int) { g_interrupted = 1; }

class InterruptObserver : public MiningObserver {
 public:
  bool OnIteration(const IterationStats&) override {
    return g_interrupted == 0;
  }
};

struct Args {
  std::string input;
  double minsup_pct = 1.0;
  double minconf_pct = 50.0;
  std::string algorithm = "setm";
  std::string storage = "memory";
  std::string rules = "single";
  std::string format = "text";
  std::string store_prefix;
  std::string append;
  std::string db;
  double fallback_pct = 25.0;
  size_t max_k = 0;
  size_t pool_frames = 0;  // 0 = DatabaseOptions default
  size_t threads = 1;
  bool stats = false;
  bool incremental = false;
  bool explain = false;
  bool storage_set = false;
  std::string metrics;  // "", "text", "json" or "prom"
  bool trace = false;
};

/// Owns the per-request trace roots when --trace is on. Each
/// planner.Execute gets a fresh root span measured against the database's
/// I/O ledger; main() renders the collected trees at exit.
struct TraceSink {
  bool enabled = false;
  const IoStats* ledger = nullptr;
  std::vector<std::unique_ptr<obs::TraceSpan>> roots;

  /// Null when tracing is off — PlanRequest::trace accepts that directly.
  obs::TraceSpan* NewRoot() {
    if (!enabled) return nullptr;
    roots.push_back(std::make_unique<obs::TraceSpan>("request", ledger));
    return roots.back().get();
  }
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --input FILE.csv [--minsup PCT] [--minconf PCT]\n"
      "          [--algo NAME|list] (--algorithm is an alias)\n"
      "          [--storage memory|heap] [--threads N]\n"
      "          [--rules single|subsets]\n"
      "          [--max-k N] [--pool-frames N] [--stats] [--format text|csv]\n"
      "          [--db FILE] [--store PREFIX] [--append FILE.csv]\n"
      "          [--incremental] [--fallback PCT] [--explain]\n"
      "          [--metrics text|json|prom] [--trace]\n"
      "(--input may be omitted when --db reopens an existing database;\n"
      " --algo list prints the registered algorithms and exits;\n"
      " --explain prints the mining plan for every request to stderr;\n"
      " --metrics dumps the process metrics registry to stderr at exit;\n"
      " --trace prints one span tree per mining request to stderr)\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--input") == 0) {
      const char* v = need_value("--input");
      if (v == nullptr) return false;
      out->input = v;
    } else if (std::strcmp(argv[i], "--minsup") == 0) {
      const char* v = need_value("--minsup");
      if (v == nullptr) return false;
      out->minsup_pct = std::atof(v);
    } else if (std::strcmp(argv[i], "--minconf") == 0) {
      const char* v = need_value("--minconf");
      if (v == nullptr) return false;
      out->minconf_pct = std::atof(v);
    } else if (std::strcmp(argv[i], "--algo") == 0 ||
               std::strcmp(argv[i], "--algorithm") == 0) {
      const char* v = need_value("--algo");
      if (v == nullptr) return false;
      out->algorithm = v;
    } else if (std::strcmp(argv[i], "--storage") == 0) {
      const char* v = need_value("--storage");
      if (v == nullptr) return false;
      out->storage = v;
      out->storage_set = true;
    } else if (std::strcmp(argv[i], "--db") == 0) {
      const char* v = need_value("--db");
      if (v == nullptr) return false;
      out->db = v;
    } else if (std::strcmp(argv[i], "--rules") == 0) {
      const char* v = need_value("--rules");
      if (v == nullptr) return false;
      out->rules = v;
    } else if (std::strcmp(argv[i], "--max-k") == 0) {
      const char* v = need_value("--max-k");
      if (v == nullptr) return false;
      out->max_k = static_cast<size_t>(std::atol(v));
    } else if (std::strcmp(argv[i], "--pool-frames") == 0) {
      const char* v = need_value("--pool-frames");
      if (v == nullptr) return false;
      long n = std::atol(v);
      if (n < 1) {
        std::fprintf(stderr, "--pool-frames must be >= 1\n");
        return false;
      }
      out->pool_frames = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = need_value("--threads");
      if (v == nullptr) return false;
      long n = std::atol(v);
      if (n < 1 || static_cast<size_t>(n) > kMaxThreads) {
        std::fprintf(stderr, "--threads must be in [1,%zu]: %s\n",
                     kMaxThreads, v);
        return false;
      }
      out->threads = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--store") == 0) {
      const char* v = need_value("--store");
      if (v == nullptr) return false;
      out->store_prefix = v;
    } else if (std::strcmp(argv[i], "--append") == 0) {
      const char* v = need_value("--append");
      if (v == nullptr) return false;
      out->append = v;
    } else if (std::strcmp(argv[i], "--incremental") == 0) {
      out->incremental = true;
    } else if (std::strcmp(argv[i], "--fallback") == 0) {
      const char* v = need_value("--fallback");
      if (v == nullptr) return false;
      out->fallback_pct = std::atof(v);
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      out->stats = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      out->explain = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      const char* v = need_value("--metrics");
      if (v == nullptr) return false;
      out->metrics = v;
      if (out->metrics != "text" && out->metrics != "json" &&
          out->metrics != "prom") {
        std::fprintf(stderr, "--metrics must be text, json or prom\n");
        return false;
      }
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      out->trace = true;
    } else if (std::strcmp(argv[i], "--format") == 0) {
      const char* v = need_value("--format");
      if (v == nullptr) return false;
      out->format = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  if (out->algorithm == "list") return true;  // no input needed to list
  if (out->input.empty() && out->db.empty()) {
    std::fprintf(stderr, "--input is required\n");
    return false;
  }
  if ((!out->store_prefix.empty() || !out->append.empty() ||
       !out->db.empty()) &&
      out->algorithm != "setm") {
    std::fprintf(stderr, "--db/--store/--append require --algo setm\n");
    return false;
  }
  if (out->incremental && out->append.empty()) {
    std::fprintf(stderr, "--incremental requires --append\n");
    return false;
  }
  if (!out->db.empty()) {
    if (out->store_prefix.empty() && out->append.empty()) {
      std::fprintf(stderr, "--db requires --store and/or --append\n");
      return false;
    }
    if (out->storage_set && out->storage != "heap") {
      std::fprintf(stderr,
                   "--db persists tables to the file and requires "
                   "--storage heap (the default with --db)\n");
      return false;
    }
    out->storage = "heap";  // memory-backed rows would not survive restart
  }
  return true;
}

void MaybeExplain(const Args& args, const MiningPlan& plan) {
  if (!args.explain) return;
  std::fprintf(stderr, "plan:\n");
  // Indent the multi-line rendering so plans stand out from other stderr.
  std::string text = plan.Explain();
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::fprintf(stderr, "  %.*s\n", static_cast<int>(end - start),
                 text.c_str() + start);
    if (end == text.size()) break;
    start = end + 1;
  }
}

SetmOptions PhysicalKnobs(const Args& args) {
  SetmOptions knobs;
  knobs.storage = args.storage == "heap" ? TableBacking::kHeap
                                         : TableBacking::kMemory;
  knobs.num_threads = args.threads;
  return knobs;
}

/// Uniform dispatch of one-shot requests: every algorithm — built-in or
/// registered later — runs through the planner's full-mine arm, which
/// creates it from the MinerRegistry. The CLI knows nothing about
/// individual miners.
Result<MiningResult> RunAlgorithm(const Args& args, Database* db,
                                  const TransactionDb& txns,
                                  const MiningOptions& options,
                                  PlanStats* plan_stats, TraceSink* sink) {
  auto info = MinerRegistry::Info(args.algorithm);
  if (!info.ok()) return info.status();
  if (args.threads > 1 && !info.value().honors_threads) {
    return Status::InvalidArgument(
        "--threads needs a partition-parallel algorithm; '" +
        args.algorithm + "' is not (see --algo list)");
  }
  PlannerOptions planner_options;  // no store prefix: plain full mine
  planner_options.algorithm = args.algorithm;
  planner_options.setm = PhysicalKnobs(args);
  MiningPlanner planner(db, planner_options);
  PlanRequest request;
  request.transactions = &txns;
  request.options = options;
  request.trace = sink->NewRoot();
  auto exec_or = planner.Execute(request);
  if (request.trace != nullptr) request.trace->End();
  if (!exec_or.ok()) return exec_or.status();
  MaybeExplain(args, exec_or.value().plan);
  *plan_stats = planner.stats();
  return std::move(exec_or).value().result;
}

/// The --store/--append path (SETM only): all request routing is the
/// planner's job — the CLI merely materializes SALES on first contact,
/// loads the append batch, and narrates what the planner decided.
///
/// `txns` is null when no --input was given: with --db the SALES relation
/// (and usually the stored run) already live in the reopened database file.
Result<MiningResult> RunStoreAppend(const Args& args, Database* db,
                                    const TransactionDb* txns,
                                    const MiningOptions& options,
                                    PlanStats* plan_stats, TraceSink* sink) {
  const TableBacking backing = args.storage == "heap" ? TableBacking::kHeap
                                                      : TableBacking::kMemory;
  const std::string prefix =
      args.store_prefix.empty() ? "fi" : args.store_prefix;

  PlannerOptions planner_options;
  planner_options.store_prefix = prefix;
  planner_options.store_backing = backing;
  planner_options.algorithm = "setm";
  planner_options.setm = PhysicalKnobs(args);
  // Without --incremental an append is answered by a full remine — the
  // comparison baseline — which a zero derivation budget enforces.
  planner_options.full_remine_fraction =
      args.incremental ? args.fallback_pct / 100.0 : 0.0;
  MiningPlanner planner(db, planner_options);

  // First contact vs reopen. The probe is free of side effects; its only
  // job here is the CLI narration and the --input sanity checks.
  Table* sales = nullptr;
  const bool have_sales = db->catalog()->HasTable("sales");
  if (have_sales) {
    auto probe = planner.store()->LoadMeta();
    if (!probe.ok() && probe.status().code() != StatusCode::kNotFound) {
      return probe.status();
    }
    if (txns != nullptr) {
      return probe.ok()
                 ? Status::InvalidArgument(
                       "database file already holds the SALES relation and "
                       "stored run '" + prefix +
                       "'; omit --input when reopening with --db")
                 : Status::InvalidArgument(
                       "database file already holds the SALES relation (but "
                       "no stored run '" + prefix +
                       "'); omit --input to remine it and build the store");
    }
    auto sales_or = db->catalog()->GetTable("sales");
    if (!sales_or.ok()) return sales_or.status();
    sales = sales_or.value();
    if (probe.ok()) {
      // Pattern count for the narration: one cheap load of the stored
      // levels (the planner re-reads what it needs from the store).
      auto stored_or = planner.store()->Load();
      if (!stored_or.ok()) return stored_or.status();
      std::fprintf(stderr,
                   "reopened database: %llu rows in sales, %zu stored "
                   "patterns under '%s' (watermark %d)\n",
                   static_cast<unsigned long long>(sales->num_rows()),
                   stored_or.value().itemsets.TotalPatterns(), prefix.c_str(),
                   static_cast<int>(probe.value().watermark));
    } else {
      // SALES survived a previous invocation but the requested store did
      // not (killed before the write-back, or a different --store prefix):
      // the planner remines the persisted rows and (re)builds the store.
      std::fprintf(stderr,
                   "reopened database: %llu rows in sales, no stored run "
                   "under '%s' — remining\n",
                   static_cast<unsigned long long>(sales->num_rows()),
                   prefix.c_str());
    }
  } else {
    if (txns == nullptr) {
      return Status::InvalidArgument(
          "database file holds no stored run under '" + prefix +
          "'; --input is required to build one");
    }
    auto sales_or = LoadSalesTable(db, "sales", *txns, backing);
    if (!sales_or.ok()) return sales_or.status();
    sales = sales_or.value();
  }

  // The base request: answered from the store when it dominates, mined and
  // written back otherwise.
  PlanRequest base_request;
  base_request.table = sales;
  base_request.options = options;
  base_request.trace = sink->NewRoot();
  auto base_or = planner.Execute(base_request);
  if (base_request.trace != nullptr) base_request.trace->End();
  if (!base_or.ok()) return base_or.status();
  PlanExecution base = std::move(base_or).value();
  MaybeExplain(args, base.plan);
  if (!have_sales) {
    // First materialization: narrate the store DDL like CREATE TABLE would.
    ItemsetStore* store = planner.store();
    if (base.result.itemsets.MaxSize() == 0) {
      std::fprintf(stderr, "stored empty result as relation %s\n",
                   store->MetaTableName().c_str());
    } else {
      std::fprintf(stderr,
                   "stored %zu patterns as relations %s, %s .. %s\n",
                   base.result.itemsets.TotalPatterns(),
                   store->MetaTableName().c_str(),
                   store->LevelTableName(1).c_str(),
                   store->LevelTableName(base.result.itemsets.MaxSize())
                       .c_str());
    }
  }

  if (args.append.empty()) {
    *plan_stats = planner.stats();
    return std::move(base.result);
  }

  auto delta_or = LoadTransactionsCsv(args.append);
  if (!delta_or.ok()) return delta_or.status();
  const TransactionDb& delta = delta_or.value();

  PlanRequest append_request;
  append_request.table = sales;
  append_request.append = &delta;
  append_request.options = options;
  append_request.trace = sink->NewRoot();
  auto appended_or = planner.Execute(append_request);
  if (append_request.trace != nullptr) append_request.trace->End();
  if (!appended_or.ok()) return appended_or.status();
  PlanExecution appended = std::move(appended_or).value();
  MaybeExplain(args, appended.plan);
  if (args.incremental) {
    std::fprintf(
        stderr, "incremental update: %s, %llu delta transactions, "
                "%llu borderline re-counts\n",
        appended.plan.strategy == PlanStrategy::kDeltaDerive
            ? "delta path"
            : "full-remine fallback",
        static_cast<unsigned long long>(appended.delta_transactions),
        static_cast<unsigned long long>(appended.borderline_candidates));
  }
  *plan_stats = planner.stats();
  return std::move(appended.result);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  if (args.algorithm == "list") {
    for (const MinerInfo& info : MinerRegistry::List()) {
      std::printf("%s\t%s\n", info.name.c_str(), info.description.c_str());
    }
    return 0;
  }

  TransactionDb txns;
  bool have_txns = false;
  if (!args.input.empty()) {
    auto txns_or = LoadTransactionsCsv(args.input);
    if (!txns_or.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", args.input.c_str(),
                   txns_or.status().ToString().c_str());
      return 1;
    }
    txns = std::move(txns_or).value();
    have_txns = true;
  }

  MiningOptions options;
  options.min_support = args.minsup_pct / 100.0;
  options.min_confidence = args.minconf_pct / 100.0;
  options.max_pattern_length = args.max_k;

  InterruptObserver interrupt_observer;
  options.observer = &interrupt_observer;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleInterrupt;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  // With --db the database lives in (and persists to) a file: Open()
  // validates the superblock of an existing file and rebuilds its catalog,
  // or initializes a fresh one; Close() at the end of main checkpoints and
  // reports failures (the destructor would only log them).
  DatabaseOptions db_options;
  db_options.file_path = args.db;
  if (args.pool_frames > 0) db_options.pool_frames = args.pool_frames;
  auto db_or = Database::Open(db_options);
  if (!db_or.ok()) {
    std::fprintf(stderr, "cannot open database %s: %s\n",
                 args.db.empty() ? "(in-memory)" : args.db.c_str(),
                 db_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = std::move(db_or).value();

  PlanStats plan_stats;
  TraceSink sink;
  sink.enabled = args.trace;
  sink.ledger = db->io_stats();
  const bool store_mode = !args.store_prefix.empty() || !args.append.empty();
  auto result =
      store_mode
          ? RunStoreAppend(args, db.get(), have_txns ? &txns : nullptr,
                           options, &plan_stats, &sink)
          : RunAlgorithm(args, db.get(), txns, options, &plan_stats, &sink);
  if (!result.ok()) {
    if (result.status().IsCancelled() && g_interrupted != 0) {
      std::fprintf(stderr, "interrupted; closing database\n");
      Status closed = db->Close();
      if (!closed.ok()) {
        std::fprintf(stderr, "closing database failed: %s\n",
                     closed.ToString().c_str());
      }
      return 130;
    }
    std::fprintf(stderr, "mining failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const RuleMode mode = args.rules == "subsets" ? RuleMode::kAnySubset
                                                : RuleMode::kSingleConsequent;
  WallTimer rules_timer;
  auto rules_or = GenerateRules(result.value().itemsets, options, mode);
  if (!rules_or.ok()) {
    if (rules_or.status().IsCancelled() && g_interrupted != 0) {
      std::fprintf(stderr, "interrupted; closing database\n");
      Status closed = db->Close();
      if (!closed.ok()) {
        std::fprintf(stderr, "closing database failed: %s\n",
                     closed.ToString().c_str());
      }
      return 130;
    }
    std::fprintf(stderr, "rule generation failed: %s\n",
                 rules_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<AssociationRule>& rules = rules_or.value();
  if (!sink.roots.empty()) {
    // Rule generation answers the *last* request's result; hang its span
    // under that root (pure in-memory work, zero page reads).
    obs::TraceSpan* rules_span = sink.roots.back()->AddCompletedChild(
        "rules", rules_timer.ElapsedSeconds(), 0);
    rules_span->AddCount("rules", rules.size());
  }

  if (args.format == "csv") {
    // One shared renderer with the server's RULES verb: both surfaces emit
    // byte-identical CSV by construction.
    const std::string csv = FormatRulesCsv(rules);
    std::fwrite(csv.data(), 1, csv.size(), stdout);
  } else {
    std::printf("%llu transactions, %zu frequent patterns, %zu rules "
                "(%s, minsup %.2f%%, minconf %.0f%%)\n",
                static_cast<unsigned long long>(
                    result.value().itemsets.num_transactions),
                result.value().itemsets.TotalPatterns(), rules.size(),
                args.algorithm.c_str(), args.minsup_pct, args.minconf_pct);
    for (const AssociationRule& r : rules) {
      std::printf("%s  (lift %.2f)\n", FormatRule(r).c_str(), r.lift);
    }
  }

  if (args.trace) {
    std::fprintf(stderr, "trace:\n");
    for (const auto& root : sink.roots) {
      std::fputs(root->Render(2).c_str(), stderr);
    }
  }

  if (args.stats) {
    std::fprintf(stderr, "\niterations:\n");
    for (const IterationStats& it : result.value().iterations) {
      std::fprintf(stderr,
                   "  k=%zu |R'|=%llu |R|=%llu |C|=%llu  %.3f ms\n", it.k,
                   static_cast<unsigned long long>(it.r_prime_rows),
                   static_cast<unsigned long long>(it.r_rows),
                   static_cast<unsigned long long>(it.c_size),
                   it.seconds * 1000.0);
    }
    std::fprintf(stderr, "io: %s\n", result.value().io.ToString().c_str());
    // The whole-process ledger: with --db this additionally covers opening
    // the file, rebuilding the catalog and loading the stored run — the
    // fair basis for cross-invocation page-count comparisons.
    std::fprintf(stderr, "db io: %s\n",
                 db->io_stats()->ToString().c_str());
    // The database's one pool, matching the scope of `db io:`.
    const BufferPool::PoolStats pool = db->pool()->Stats();
    const uint64_t fetches = pool.hits + pool.misses;
    std::fprintf(stderr,
                 "pool: hits=%llu misses=%llu hit_ratio=%.3f evictions=%llu "
                 "writebacks=%llu retries=%llu bypass_reads=%llu "
                 "bypass_writes=%llu\n",
                 static_cast<unsigned long long>(pool.hits),
                 static_cast<unsigned long long>(pool.misses),
                 fetches == 0 ? 0.0
                              : static_cast<double>(pool.hits) /
                                    static_cast<double>(fetches),
                 static_cast<unsigned long long>(pool.evictions),
                 static_cast<unsigned long long>(pool.dirty_writebacks),
                 static_cast<unsigned long long>(pool.eviction_retries),
                 static_cast<unsigned long long>(pool.bypass_reads),
                 static_cast<unsigned long long>(pool.bypass_writes));
    const WalStats wal = db->wal_stats();
    std::fprintf(stderr, "wal: records=%llu commits=%llu bytes=%llu "
                         "fsyncs=%llu\n",
                 static_cast<unsigned long long>(wal.page_records),
                 static_cast<unsigned long long>(wal.commit_records),
                 static_cast<unsigned long long>(wal.bytes_appended),
                 static_cast<unsigned long long>(wal.fsyncs));
    std::fprintf(stderr, "plan: %s\n", plan_stats.ToString().c_str());
    std::fprintf(stderr, "total: %.3f s\n", result.value().total_seconds);
  }

  if (!args.metrics.empty()) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global()->Snapshot();
    std::string rendered;
    if (args.metrics == "json") {
      rendered = obs::RenderJson(snapshot);
    } else if (args.metrics == "prom") {
      rendered = obs::RenderPrometheus(snapshot);
    } else {
      rendered = obs::RenderText(snapshot);
    }
    std::fputs(rendered.c_str(), stderr);
  }

  // Explicit close: the final checkpoint's status is the only signal that
  // this run's appends actually reached stable storage, so surface it as
  // the process exit code instead of swallowing it in the destructor.
  Status closed = db->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "closing database failed: %s\n",
                 closed.ToString().c_str());
    return 1;
  }
  return 0;
}
