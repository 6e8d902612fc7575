#include "core/miner_registry.h"

#include <mutex>
#include <utility>

#include "baselines/ais.h"
#include "baselines/apriori.h"
#include "baselines/brute_force.h"
#include "core/nested_loop_miner.h"
#include "core/setm.h"
#include "core/setm_sql.h"

namespace setm {

namespace {

/// Catalog name the setm-sql adapter loads a transactions source under
/// (dropped again after the run). Outside the scratch namespace, so the
/// miner's clobber protection ignores it; a user table with this name makes
/// the load fail with AlreadyExists instead of overwriting anything.
const char kSqlSourceTable[] = "setm_sql_source";

/// Common adapter plumbing: name, bound database, default knobs, and the
/// request validation every algorithm shares.
class MinerAdapter : public Miner {
 public:
  MinerAdapter(std::string name, Database* db, SetmOptions knobs,
               bool honors_threads)
      : name_(std::move(name)),
        db_(db),
        knobs_(knobs),
        honors_threads_(honors_threads) {}

  const std::string& name() const override { return name_; }

  Result<MiningResult> Mine(const MiningRequest& request) override {
    SETM_RETURN_IF_ERROR(ValidateMiningRequest(request));
    const SetmOptions knobs = request.physical.value_or(knobs_);
    if (!honors_threads_ && knobs.num_threads > 1) {
      return Status::InvalidArgument(
          "algorithm '" + name_ + "' is not partition-parallel and cannot "
          "honor num_threads > 1 (MinerRegistry::List reports which "
          "algorithms can)");
    }
    return MineWith(request, knobs);
  }

 protected:
  virtual Result<MiningResult> MineWith(const MiningRequest& request,
                                        const SetmOptions& knobs) = 0;

  /// The request's transactions, extracted from the table source through
  /// one scan into `storage` when necessary — the shared MineTable path of
  /// the algorithms without a native table pipeline.
  Result<const TransactionDb*> SourceTransactions(
      const MiningRequest& request, TransactionDb* storage) {
    if (request.transactions != nullptr) return request.transactions;
    auto txns = TransactionsFromTable(*request.table);
    if (!txns.ok()) return txns.status();
    *storage = std::move(txns).value();
    return static_cast<const TransactionDb*>(storage);
  }

  Database* db() { return db_; }

 private:
  std::string name_;
  Database* db_;
  SetmOptions knobs_;
  bool honors_threads_;
};

class SetmAdapter : public MinerAdapter {
 public:
  using MinerAdapter::MinerAdapter;

 protected:
  Result<MiningResult> MineWith(const MiningRequest& request,
                                const SetmOptions& knobs) override {
    SetmMiner miner(db(), knobs);
    if (request.table != nullptr) {
      return miner.MineTable(*request.table, request.options);
    }
    return miner.Mine(*request.transactions, request.options);
  }
};

class AprioriAdapter : public MinerAdapter {
 public:
  using MinerAdapter::MinerAdapter;

 protected:
  Result<MiningResult> MineWith(const MiningRequest& request,
                                const SetmOptions& knobs) override {
    TransactionDb storage;
    auto txns = SourceTransactions(request, &storage);
    if (!txns.ok()) return txns.status();
    return AprioriMiner(knobs.num_threads, db()->worker_pool())
        .Mine(*txns.value(), request.options);
  }
};

class SetmSqlAdapter : public MinerAdapter {
 public:
  using MinerAdapter::MinerAdapter;

 protected:
  Result<MiningResult> MineWith(const MiningRequest& request,
                                const SetmOptions& knobs) override {
    SetmSqlMiner miner(db(), knobs.storage);
    const Table* source = request.table;
    bool temp_source = false;
    if (source == nullptr) {
      auto loaded = LoadSalesTable(db(), kSqlSourceTable,
                                   *request.transactions, knobs.storage);
      if (!loaded.ok()) return loaded.status();
      source = loaded.value();
      temp_source = true;
    }
    auto result = miner.MineTable(*source, request.options);
    // Registry-driven callers never inspect scratch relations, so leave the
    // catalog exactly as found (modulo a successful run's result).
    Status cleanup = miner.DropOwnScratch();
    if (temp_source) {
      Status drop = db()->catalog()->DropTable(kSqlSourceTable);
      if (cleanup.ok()) cleanup = drop;
    }
    if (result.ok() && !cleanup.ok()) return cleanup;
    return result;
  }
};

class NestedLoopAdapter : public MinerAdapter {
 public:
  using MinerAdapter::MinerAdapter;

 protected:
  Result<MiningResult> MineWith(const MiningRequest& request,
                                const SetmOptions& knobs) override {
    (void)knobs;  // indexes always live behind the database's buffer pool
    TransactionDb storage;
    auto txns = SourceTransactions(request, &storage);
    if (!txns.ok()) return txns.status();
    return NestedLoopMiner(db()).Mine(*txns.value(), request.options);
  }
};

/// Adapter for the serial in-memory baselines (ais, brute-force), which
/// share one calling convention.
template <typename Algorithm>
class BaselineAdapter : public MinerAdapter {
 public:
  using MinerAdapter::MinerAdapter;

 protected:
  Result<MiningResult> MineWith(const MiningRequest& request,
                                const SetmOptions& knobs) override {
    (void)knobs;  // purely in-memory: no storage/count-method dimension
    TransactionDb storage;
    auto txns = SourceTransactions(request, &storage);
    if (!txns.ok()) return txns.status();
    return Algorithm().Mine(*txns.value(), request.options);
  }
};

struct RegistryEntry {
  MinerInfo info;
  MinerRegistry::Factory factory;
};

/// The process-wide registry state. Built-ins are installed in the
/// constructor (directly, not through MinerRegistry::Register, which would
/// re-enter the singleton accessor).
class RegistryState {
 public:
  static RegistryState& Get() {
    static RegistryState state;
    return state;
  }

  std::mutex mu;
  std::vector<RegistryEntry> entries;

  RegistryEntry* FindLocked(const std::string& name) {
    for (RegistryEntry& entry : entries) {
      if (entry.info.name == name) return &entry;
    }
    return nullptr;
  }

 private:
  template <typename Adapter>
  void AddBuiltin(MinerInfo info) {
    const std::string name = info.name;
    const bool honors_threads = info.honors_threads;
    entries.push_back(RegistryEntry{
        std::move(info),
        [name, honors_threads](Database* db, const SetmOptions& knobs) {
          return std::unique_ptr<Miner>(
              std::make_unique<Adapter>(name, db, knobs, honors_threads));
        }});
  }

  RegistryState() {
    AddBuiltin<SetmAdapter>(MinerInfo{
        "setm",
        "Algorithm SETM (Figure 4): external sort + merge-scan join "
        "pipeline under the shard coordinator, as one shard or, with "
        "num_threads > 1, as that many trans_id shards whose local counts "
        "merge before the global support filter",
        /*honors_storage=*/true, /*honors_count_method=*/true,
        /*honors_threads=*/true});
    AddBuiltin<SetmSqlAdapter>(MinerInfo{
        "setm-sql",
        "SETM as the literal Section 4.1 SQL statements, executed through "
        "the engine's SQL layer",
        /*honors_storage=*/true, /*honors_count_method=*/false,
        /*honors_threads=*/false});
    AddBuiltin<NestedLoopAdapter>(MinerInfo{
        "nested-loop",
        "the Section 3.2 strategy: candidate counting via index-backed "
        "nested-loop joins over two B+-tree SALES indexes",
        /*honors_storage=*/false, /*honors_count_method=*/false,
        /*honors_threads=*/false});
    AddBuiltin<AprioriAdapter>(MinerInfo{
        "apriori",
        "Apriori (VLDB'94): level-wise candidate generation, subset "
        "pruning and hash-tree counting; with num_threads > 1, transaction "
        "chunks count the same candidates in parallel (count distribution, "
        "TKDE'96) and their counts are summed before the support filter",
        /*honors_storage=*/false, /*honors_count_method=*/false,
        /*honors_threads=*/true});
    AddBuiltin<BaselineAdapter<AisMiner>>(MinerInfo{
        "ais",
        "AIS (SIGMOD'93): candidates generated and counted during the "
        "data scan",
        /*honors_storage=*/false, /*honors_count_method=*/false,
        /*honors_threads=*/false});
    AddBuiltin<BaselineAdapter<BruteForceMiner>>(MinerInfo{
        "brute-force",
        "oracle: exhaustive level-wise subset counting (test-sized inputs "
        "only)",
        /*honors_storage=*/false, /*honors_count_method=*/false,
        /*honors_threads=*/false});
  }
};

}  // namespace

Status MinerRegistry::Register(MinerInfo info, Factory factory) {
  if (info.name.empty()) {
    return Status::InvalidArgument("algorithm name must be non-empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("algorithm '" + info.name +
                                   "' needs a factory");
  }
  RegistryState& state = RegistryState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.FindLocked(info.name) != nullptr) {
    return Status::AlreadyExists("algorithm '" + info.name +
                                 "' is already registered");
  }
  state.entries.push_back(RegistryEntry{std::move(info), std::move(factory)});
  return Status::OK();
}

Result<std::unique_ptr<Miner>> MinerRegistry::Create(const std::string& name,
                                                     Database* db,
                                                     const SetmOptions& knobs) {
  if (db == nullptr) {
    return Status::InvalidArgument(
        "MinerRegistry::Create requires a database (it hosts relations, "
        "indexes and the I/O ledger of the created miner)");
  }
  RegistryState& state = RegistryState::Get();
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    RegistryEntry* entry = state.FindLocked(name);
    if (entry == nullptr) {
      std::string known;
      for (const RegistryEntry& e : state.entries) {
        if (!known.empty()) known += ", ";
        known += e.info.name;
      }
      return Status::NotFound("unknown algorithm '" + name +
                              "'; registered: " + known);
    }
    factory = entry->factory;
  }
  std::unique_ptr<Miner> miner = factory(db, knobs);
  if (miner == nullptr) {
    return Status::Internal("factory for algorithm '" + name +
                            "' returned null");
  }
  return miner;
}

Result<MinerInfo> MinerRegistry::Info(const std::string& name) {
  RegistryState& state = RegistryState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  RegistryEntry* entry = state.FindLocked(name);
  if (entry == nullptr) {
    return Status::NotFound("unknown algorithm '" + name + "'");
  }
  return entry->info;
}

std::vector<MinerInfo> MinerRegistry::List() {
  RegistryState& state = RegistryState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<MinerInfo> infos;
  infos.reserve(state.entries.size());
  for (const RegistryEntry& entry : state.entries) {
    infos.push_back(entry.info);
  }
  return infos;
}

}  // namespace setm
