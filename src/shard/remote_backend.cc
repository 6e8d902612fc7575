#include "shard/remote_backend.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "core/setm_pipeline.h"
#include "net/protocol.h"

namespace setm::shard {

namespace {

/// Rehydrates a protocol "ERR <Code> <message>" into a Status of the same
/// category, so a remote NotFound (unknown table) stays a NotFound at the
/// coordinator and only transport failures read as IOError/Unavailable.
Status StatusFromError(const net::ClientResponse& response) {
  static const struct {
    const char* name;
    StatusCode code;
  } kCodes[] = {
      {"InvalidArgument", StatusCode::kInvalidArgument},
      {"NotFound", StatusCode::kNotFound},
      {"AlreadyExists", StatusCode::kAlreadyExists},
      {"Corruption", StatusCode::kCorruption},
      {"IOError", StatusCode::kIOError},
      {"NotSupported", StatusCode::kNotSupported},
      {"OutOfRange", StatusCode::kOutOfRange},
      {"ResourceExhausted", StatusCode::kResourceExhausted},
      {"Internal", StatusCode::kInternal},
      {"Cancelled", StatusCode::kCancelled},
      {"Unavailable", StatusCode::kUnavailable},
  };
  for (const auto& entry : kCodes) {
    if (response.code == entry.name) {
      return Status(entry.code, response.info);
    }
  }
  return Status::Internal("server error [" + response.code + "] " +
                          response.info);
}

/// A shard's trans_ids are distinct int32 values, so it cannot hold more
/// transactions than this.
constexpr uint64_t kMaxShardTransactions = uint64_t{1} << 32;

/// A reply's counts sum to at most its rprime and take a row per INT32_MAX
/// (AppendEntry), so this bound on rprime keeps a reply within one row per
/// line plus 2^21. No pass counts 2^52 rows: 52 days at 10^9 rows a second.
constexpr uint64_t kMaxCountedRows = uint64_t{1} << 52;

/// Pulls "<key>=<uint>" out of an info line. A missing field, a value that
/// does not start with a digit (so no sign) and one beyond uint64 are
/// Corruption.
Status InfoField(const std::string& info, const std::string& key,
                 uint64_t* out) {
  const std::string needle = key + "=";
  size_t pos = 0;
  while (true) {
    pos = info.find(needle, pos);
    if (pos == std::string::npos) {
      return Status::Corruption("shard response info is missing '" + key +
                                "': " + info);
    }
    if (pos == 0 || info[pos - 1] == ' ') break;
    pos += needle.size();
  }
  const char* begin = info.c_str() + pos + needle.size();
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(begin, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*begin)) || errno == ERANGE ||
      (*end != '\0' && *end != ' ')) {
    return Status::Corruption("shard response info field '" + key +
                              "' is not an unsigned 64-bit number: " + info);
  }
  *out = static_cast<uint64_t>(value);
  return Status::OK();
}

/// Reads a reply's rprime, the rows it counted, into `out` and its payload
/// of "<parent id> <item> <count>" lines into (parent id, item, count)
/// rows. The keys must be strictly ascending and the counts sum to at most
/// rprime. Whether each key names a candidate is the coordinator's check.
Status ParseCounts(const net::ClientResponse& response, ShardReply* out) {
  SETM_RETURN_IF_ERROR(InfoField(response.info, "rprime", &out->r_prime_rows));
  const uint64_t rprime = out->r_prime_rows;
  if (rprime > kMaxCountedRows) {
    return Status::Corruption("shard reported rprime=" +
                              std::to_string(rprime) + ", more than 2^52");
  }
  uint64_t counted = 0;
  size_t pos = 0;
  while (pos < response.payload.size()) {
    const size_t nl = response.payload.find('\n', pos);
    const std::string line = response.payload.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? response.payload.size() : nl + 1;
    if (line.empty()) continue;
    int64_t count = 0;
    auto key = net::ParseKeyLine(line, &count);
    if (!key.ok()) return Status::Corruption(key.status().message());
    const std::vector<int32_t>& rows = out->counts;
    if (!rows.empty() && !(CandidateKey{rows[rows.size() - 3],
                                        rows[rows.size() - 2]} < key.value())) {
      return Status::Corruption("shard count keys do not ascend at: " + line);
    }
    if (static_cast<uint64_t>(count) > rprime - counted) {
      return Status::Corruption("shard counts sum past rprime=" +
                                std::to_string(rprime) + " at: " + line);
    }
    counted += static_cast<uint64_t>(count);
    const ItemId entry[2] = {key.value().parent, key.value().item};
    AppendEntry(entry, 2, count, &out->counts);
  }
  return Status::OK();
}

}  // namespace

RemoteShardBackend::RemoteShardBackend(std::string host, uint16_t port,
                                       std::string table, std::string name,
                                       int timeout_ms)
    : host_(std::move(host)),
      port_(port),
      table_(std::move(table)),
      name_(std::move(name)),
      timeout_ms_(timeout_ms) {
  if (name_.empty()) {
    name_ = host_ + ":" + std::to_string(port_) + "/" + table_;
  }
}

Status RemoteShardBackend::EnsureConnected() {
  if (client_ != nullptr) return Status::OK();
  auto client_or = net::BlockingClient::Connect(host_, port_, timeout_ms_);
  if (!client_or.ok()) return client_or.status();
  client_ = std::move(client_or).value();
  return Status::OK();
}

Result<net::ClientResponse> RemoteShardBackend::Exec(
    const std::string& command) {
  SETM_RETURN_IF_ERROR(EnsureConnected());
  auto response_or = client_->Exec(command);
  if (!response_or.ok()) {
    client_.reset();  // dead socket; the next run reconnects
    return response_or.status();
  }
  return response_or;
}

Status RemoteShardBackend::BeginRun(const ShardRunOptions& options) {
  run_ = options;
  // Connecting here (instead of lazily) makes a down shard fail the run
  // before any shard has counted anything.
  return EnsureConnected();
}

Result<ShardReply> RemoteShardBackend::CountFirstIteration() {
  std::string command = "LCOUNT " + table_ + " K 1";
  if (run_.count_method == CountMethod::kHash) command += " METHOD hash";
  if (run_.filter_r1) command += " FILTER";
  if (run_.max_pattern_length != 0) {
    // MERGE's K stops at 64, so no run reaches a longer limit.
    command += " MAXK " +
               std::to_string(std::min<size_t>(run_.max_pattern_length, 64));
  }
  auto response_or = Exec(command);
  if (!response_or.ok()) return response_or.status();
  run_open_ = true;  // the server may hold a run from here on
  const net::ClientResponse& response = response_or.value();
  if (!response.ok) return StatusFromError(response);

  ShardReply out;
  SETM_RETURN_IF_ERROR(
      InfoField(response.info, "transactions", &out.transactions));
  SETM_RETURN_IF_ERROR(InfoField(response.info, "rbytes", &out.r_bytes));
  SETM_RETURN_IF_ERROR(InfoField(response.info, "rpages", &out.r_pages));
  if (out.transactions > kMaxShardTransactions) {
    return Status::Corruption(
        "shard reported " + std::to_string(out.transactions) +
        " transactions, more than the 2^32 distinct int32 trans_ids");
  }
  SETM_RETURN_IF_ERROR(ParseCounts(response, &out));
  out.r_rows = out.r_prime_rows;  // R_1 is the slice it counted
  last_transactions_ = out.transactions;
  last_rows_ = out.r_rows;
  last_bytes_ = out.r_bytes;
  return out;
}

Result<ShardReply> RemoteShardBackend::ApplyGlobalCk(
    size_t k, const std::vector<CandidateKey>& ck) {
  // The whole exchange is one Exec: the command line, every surviving
  // key and the "." terminator ride in a single send (the protocol is
  // line-oriented, not packet-oriented), so a large C_k does not become
  // thousands of TCP_NODELAY-sized packets.
  std::string command = "MERGE K " + std::to_string(k);
  for (const CandidateKey& key : ck) {
    command += '\n';
    command += std::to_string(key.parent);
    command += ' ';
    command += std::to_string(key.item);
  }
  command += "\n.";
  auto response_or = Exec(command);
  if (!response_or.ok()) return response_or.status();
  const net::ClientResponse& response = response_or.value();
  if (!response.ok) return StatusFromError(response);

  ShardReply out;
  SETM_RETURN_IF_ERROR(InfoField(response.info, "rows", &out.r_rows));
  SETM_RETURN_IF_ERROR(InfoField(response.info, "bytes", &out.r_bytes));
  SETM_RETURN_IF_ERROR(InfoField(response.info, "pages", &out.r_pages));
  SETM_RETURN_IF_ERROR(ParseCounts(response, &out));
  return out;
}

Status RemoteShardBackend::EndRun() {
  // Only a connection that sent LCOUNT can hold a run on the server; the
  // connection itself stays open for the next run.
  if (!run_open_ || client_ == nullptr) return Status::OK();
  run_open_ = false;
  auto response_or = Exec("RELEASE");
  if (!response_or.ok()) return response_or.status();
  const net::ClientResponse& response = response_or.value();
  if (!response.ok) return StatusFromError(response);
  uint64_t runs = 0;
  SETM_RETURN_IF_ERROR(InfoField(response.info, "run", &runs));
  if (runs > 1) {
    return Status::Corruption("shard released " + std::to_string(runs) +
                              " runs; a connection holds at most one");
  }
  return Status::OK();
}

Result<ShardHealth> RemoteShardBackend::Health() {
  ShardHealth health;
  health.transactions = last_transactions_;
  health.sales_rows = last_rows_;
  health.sales_bytes = last_bytes_;
  auto response_or = Exec("PING");
  if (!response_or.ok()) return health;  // unreachable, occupancy cached
  health.reachable = response_or.value().ok;
  return health;
}

}  // namespace setm::shard
