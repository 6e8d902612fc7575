#ifndef SETM_CORE_MINER_REGISTRY_H_
#define SETM_CORE_MINER_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/miner.h"
#include "relational/database.h"

namespace setm {

/// One registry entry's metadata: the name algorithms are created under,
/// a one-line description for `--algo list`, and which physical knobs the
/// algorithm honors — the axes sweeps (equivalence tests, benches, the CLI)
/// use to decide which configurations are meaningful.
struct MinerInfo {
  std::string name;
  std::string description;
  /// Honors SetmOptions::storage (kMemory vs kHeap relations).
  bool honors_storage = false;
  /// Honors SetmOptions::count_method (sort-merge vs hash C_k counting).
  bool honors_count_method = false;
  /// Honors SetmOptions::num_threads; algorithms with false reject
  /// num_threads > 1 with InvalidArgument.
  bool honors_threads = false;
};

/// Process-wide name -> Miner factory map. The six built-in algorithms
///
///   setm setm-sql nested-loop apriori ais brute-force
///
/// are registered on first use, in that (stable) enumeration order;
/// libraries and tests may Register additional algorithms, which then
/// automatically appear in `setm_mine --algo list`, the cross-algorithm
/// equivalence suite and the registry-driven benches. Thread-safe.
///
///     Database db;
///     auto miner = MinerRegistry::Create("apriori", &db).value();
///     MiningRequest request;
///     request.transactions = &txns;
///     request.options.min_support = 0.01;
///     MiningResult result = miner->Mine(request).value();
class MinerRegistry {
 public:
  /// Builds a Miner bound to `db` with default physical knobs `knobs`
  /// (a request's `physical` field overrides them per call). Returns the
  /// adapter, or NotFound naming the registered algorithms.
  using Factory = std::function<std::unique_ptr<Miner>(
      Database* db, const SetmOptions& knobs)>;

  /// Registers an algorithm. InvalidArgument for an empty name,
  /// AlreadyExists when the name is taken (built-ins included).
  static Status Register(MinerInfo info, Factory factory);

  /// Creates the named algorithm bound to `db` (required — every miner
  /// reports I/O through the database's ledger even when it never touches
  /// a relation). `knobs` become the miner's default physical options.
  static Result<std::unique_ptr<Miner>> Create(const std::string& name,
                                               Database* db,
                                               const SetmOptions& knobs = {});

  /// Metadata of one registered algorithm; NotFound when absent.
  static Result<MinerInfo> Info(const std::string& name);

  /// All registered algorithms, in registration order (built-ins first).
  static std::vector<MinerInfo> List();
};

}  // namespace setm

#endif  // SETM_CORE_MINER_REGISTRY_H_
