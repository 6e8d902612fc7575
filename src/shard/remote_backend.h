#ifndef SETM_SHARD_REMOTE_BACKEND_H_
#define SETM_SHARD_REMOTE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "net/client.h"
#include "shard/shard_backend.h"

namespace setm::shard {

/// A shard served by a remote setm_served instance, driven over the line
/// protocol's LCOUNT/MERGE verbs (net/protocol.h). The server's handler is
/// a LocalShardBackend over the named table, so a remote shard computes
/// bit-identical counts to a local one — this class only moves them. A run
/// is one LCOUNT (CountFirstIteration, carrying the run's options and
/// length limit), one MERGE per iteration (ApplyGlobalCk), whose reply
/// holds R_k's size and the local counts of R'_{k+1}, and one RELEASE
/// (EndRun, once an LCOUNT was sent), which frees the server's R_1 and
/// last R_k.
///
/// One connection per backend, established at BeginRun (BlockingClient
/// already retries transient refusals with backoff) and kept across runs.
/// Any transport failure drops the connection and surfaces as IOError; the
/// coordinator rewrites that into Unavailable naming this shard and aborts
/// the run — a down shard never yields partial results. The next BeginRun
/// reconnects from scratch.
class RemoteShardBackend : public ShardBackend {
 public:
  /// `table` is the SALES table to mine on the remote server. `name`
  /// defaults to "host:port/table".
  RemoteShardBackend(std::string host, uint16_t port, std::string table,
                     std::string name = "", int timeout_ms = 30000);

  const std::string& name() const override { return name_; }
  Status BeginRun(const ShardRunOptions& options) override;
  Result<ShardReply> CountFirstIteration() override;
  Result<ShardReply> ApplyGlobalCk(
      size_t k, const std::vector<CandidateKey>& ck) override;
  Status EndRun() override;
  Result<ShardHealth> Health() override;

 private:
  Status EnsureConnected();
  /// Exec that turns any transport failure into a dropped connection, so
  /// the next run does not reuse a half-dead socket.
  Result<net::ClientResponse> Exec(const std::string& command);

  std::string host_;
  uint16_t port_;
  std::string table_;
  std::string name_;
  int timeout_ms_;
  ShardRunOptions run_;
  std::unique_ptr<net::BlockingClient> client_;
  /// An LCOUNT reached the server and no RELEASE followed yet.
  bool run_open_ = false;
  /// Occupancy from the last LCOUNT, reported by Health (a PING
  /// answers liveness; the protocol has no occupancy probe).
  uint64_t last_transactions_ = 0;
  uint64_t last_rows_ = 0;
  uint64_t last_bytes_ = 0;
};

}  // namespace setm::shard

#endif  // SETM_SHARD_REMOTE_BACKEND_H_
