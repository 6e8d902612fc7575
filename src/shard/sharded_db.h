#ifndef SETM_SHARD_SHARDED_DB_H_
#define SETM_SHARD_SHARDED_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "persist/shard_manifest.h"
#include "relational/database.h"
#include "shard/shard_backend.h"

namespace setm {
class WorkerPool;
}

namespace setm::shard {

/// Open-time knobs of a sharded database.
struct ShardedDatabaseOptions {
  /// Options for each file member's Database (file_path is overwritten with
  /// the member's path).
  DatabaseOptions db_options;
  /// Scratch/count knobs forwarded to every shard.
  ShardRunOptions run;
  /// Connect/receive timeout for remote members, milliseconds.
  int remote_timeout_ms = 30000;
};

/// Health of one member, paired with its manifest identity.
struct ShardMemberHealth {
  uint32_t id = 0;
  std::string name;
  ShardHealth health;
};

/// A multi-shard database: N member shards — local database files and/or
/// remote setm_served instances, as listed in a ShardManifest — mined as one
/// logical database through the distributed count coordinator
/// (shard/coordinator.h). Every member is a completely ordinary database
/// (own WAL, own catalog); this class only owns the membership view, the
/// backends and the fan-out pool.
class ShardedDatabase {
 public:
  /// Opens every file member (creating backends bound to each member's
  /// table) and constructs remote backends for the rest. Remote members are
  /// not contacted here — a down shard surfaces when a run (or Health)
  /// first touches it. Fails if the manifest is empty or a file member
  /// cannot be opened.
  static Result<std::unique_ptr<ShardedDatabase>> Open(
      ShardManifest manifest, ShardedDatabaseOptions options = {});

  ~ShardedDatabase();

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  /// The distributed mine: bit-identical to single-node SETM over the union
  /// of the shards. One unavailable shard fails the whole run with
  /// Status::Unavailable naming it — never partial results.
  Result<MiningResult> Mine(const MiningOptions& options);

  /// Probes every member (remote members answer a PING).
  std::vector<ShardMemberHealth> Health();

  const ShardManifest& manifest() const { return manifest_; }
  /// The backends, in manifest order (tests drive these directly).
  const std::vector<ShardBackend*>& backends() const { return backends_; }

  /// Closes every file member, surfacing the first error. Idempotent.
  Status Close();

 private:
  ShardedDatabase() = default;

  ShardManifest manifest_;
  ShardedDatabaseOptions options_;
  std::vector<std::unique_ptr<Database>> file_dbs_;  ///< kFile members
  std::vector<std::unique_ptr<ShardBackend>> owned_backends_;
  std::vector<ShardBackend*> backends_;
  std::unique_ptr<WorkerPool> fanout_;
  bool closed_ = false;
};

}  // namespace setm::shard

#endif  // SETM_SHARD_SHARDED_DB_H_
