#include "shard/sharded_db.h"

#include "common/logging.h"
#include "exec/worker_pool.h"
#include "shard/coordinator.h"
#include "shard/local_backend.h"
#include "shard/remote_backend.h"

namespace setm::shard {

Result<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Open(
    ShardManifest manifest, ShardedDatabaseOptions options) {
  if (manifest.members.empty()) {
    return Status::InvalidArgument("shard manifest has no members");
  }
  std::unique_ptr<ShardedDatabase> db(new ShardedDatabase());
  db->manifest_ = std::move(manifest);
  db->options_ = std::move(options);

  for (const ShardMember& member : db->manifest_.members) {
    const std::string id = "s" + std::to_string(member.id);
    if (member.kind == ShardMember::Kind::kFile) {
      DatabaseOptions db_options = db->options_.db_options;
      db_options.file_path = member.path;
      auto member_db_or = Database::Open(std::move(db_options));
      if (!member_db_or.ok()) {
        return Status(member_db_or.status().code(),
                      "shard '" + id + "' (" + member.path +
                          "): " + member_db_or.status().message());
      }
      db->file_dbs_.push_back(std::move(member_db_or).value());
      auto backend = std::make_unique<LocalShardBackend>(
          db->file_dbs_.back().get(), id + ":" + member.path);
      backend->BindTable(member.table);
      db->owned_backends_.push_back(std::move(backend));
    } else {
      db->owned_backends_.push_back(std::make_unique<RemoteShardBackend>(
          member.host, member.port, member.table,
          id + "@" + member.host + ":" + std::to_string(member.port),
          db->options_.remote_timeout_ms));
    }
    db->backends_.push_back(db->owned_backends_.back().get());
  }

  // One fan-out thread per shard: shard calls are I/O plus compute, and
  // each shard has exactly one in flight.
  const size_t fanout = db->backends_.size();
  if (fanout > 1) db->fanout_ = std::make_unique<WorkerPool>(fanout);
  return db;
}

ShardedDatabase::~ShardedDatabase() {
  Status s = Close();
  if (!s.ok()) {
    SETM_LOG(kError) << "closing sharded database: " << s.ToString();
  }
}

Result<MiningResult> ShardedDatabase::Mine(const MiningOptions& options) {
  CoordinatorOptions coord;
  coord.run = options_.run;
  coord.pool = fanout_.get();
  return DistributedMine(backends_, options, coord);
}

std::vector<ShardMemberHealth> ShardedDatabase::Health() {
  std::vector<ShardMemberHealth> out;
  out.reserve(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    ShardMemberHealth member;
    member.id = manifest_.members[i].id;
    member.name = backends_[i]->name();
    auto health_or = backends_[i]->Health();
    if (health_or.ok()) member.health = health_or.value();
    out.push_back(std::move(member));
  }
  return out;
}

Status ShardedDatabase::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  // Backends first: they hold scratch relations inside the member databases.
  for (auto& backend : owned_backends_) backend->EndRun();
  Status first;
  for (auto& db : file_dbs_) {
    Status s = db->Close();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

}  // namespace setm::shard
