// setm_served — the resident mining daemon.
//
//   setm_served --db FILE [--host ADDR] [--port N] [--port-file FILE]
//               [--max-conns N] [--max-line-bytes N] [--idle-timeout-ms N]
//               [--request-timeout-ms N] [--job-threads N] [--threads N]
//               [--store PREFIX] [--fallback PCT] [--pool-frames N]
//               [--trace]
//
// Opens the database once and serves concurrent clients over the line
// protocol (see src/net/protocol.h): MINE / APPEND / RULES / EXPLAIN are
// dispatched as cancellable jobs through the MiningPlanner, PING / STATS /
// QUIT are answered inline. The buffer pool stays warm and stored runs
// stay fresh across clients, so the second client asking yesterday's
// question gets a cache-filter answer with zero mining iterations —
// exactly the amortization a one-shot CLI cannot offer.
//
// --port 0 (the default) binds an ephemeral port; the bound port is
// printed on stdout as "listening on HOST:PORT" and, with --port-file,
// written there as a bare number — scripts poll that file instead of
// racing the bind. Without --db the daemon serves an in-memory database
// (useful for tests; APPEND-created state dies with the process).
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, cancel
// in-flight jobs through the observer seam (they stop within one
// iteration), flush what can be flushed, checkpoint and close the
// database. A second signal during the grace period is not needed — the
// grace deadline (--grace-ms) bounds the wait unconditionally.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/miner.h"
#include "net/server.h"
#include "relational/database.h"

namespace {

using namespace setm;

volatile std::sig_atomic_t g_shutdown = 0;
setm::net::MiningServer* g_server = nullptr;

void HandleSignal(int) {
  g_shutdown = 1;
  // Async-signal-safe: RequestShutdown is an atomic store plus one write(2)
  // to the loop's self-pipe.
  if (g_server != nullptr) g_server->RequestShutdown();
}

struct Args {
  std::string db;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string port_file;
  size_t max_conns = 64;
  size_t max_line_bytes = 8192;
  uint64_t idle_timeout_ms = 300000;
  uint64_t request_timeout_ms = 0;
  uint64_t grace_ms = 5000;
  size_t job_threads = 4;
  size_t threads = 1;  // default THREADS for MINE
  std::string store_prefix = "fi";
  double fallback_pct = 25.0;
  size_t pool_frames = 0;
  bool trace = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--db FILE] [--host ADDR] [--port N] [--port-file FILE]\n"
      "          [--max-conns N] [--max-line-bytes N] [--idle-timeout-ms N]\n"
      "          [--request-timeout-ms N] [--grace-ms N] [--job-threads N]\n"
      "          [--threads N] [--store PREFIX] [--fallback PCT]\n"
      "          [--pool-frames N] [--trace]\n"
      "(--port 0 binds an ephemeral port, printed on stdout and written to\n"
      " --port-file; --store '' disables the shared result cache; --trace\n"
      " renders one span tree per request to stderr)\n",
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
    // A count in [min_v, max_v]; the refusal names the range.
    auto parse_count = [&](const char* flag, size_t min_v, size_t* dst,
                           size_t max_v = SIZE_MAX) {
      const char* v = need_value(flag);
      if (v == nullptr) return false;
      long n = std::atol(v);
      if (n < static_cast<long>(min_v) || static_cast<size_t>(n) > max_v) {
        if (max_v == SIZE_MAX) {
          std::fprintf(stderr, "%s must be >= %zu\n", flag, min_v);
        } else {
          std::fprintf(stderr, "%s must be in [%zu,%zu]\n", flag, min_v,
                       max_v);
        }
        return false;
      }
      *dst = static_cast<size_t>(n);
      return true;
    };
    if (std::strcmp(argv[i], "--db") == 0) {
      const char* v = need_value("--db");
      if (v == nullptr) return false;
      out->db = v;
    } else if (std::strcmp(argv[i], "--host") == 0) {
      const char* v = need_value("--host");
      if (v == nullptr) return false;
      out->host = v;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      const char* v = need_value("--port");
      if (v == nullptr) return false;
      long n = std::atol(v);
      if (n < 0 || n > 65535) {
        std::fprintf(stderr, "--port must be in [0,65535]\n");
        return false;
      }
      out->port = static_cast<uint16_t>(n);
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      const char* v = need_value("--port-file");
      if (v == nullptr) return false;
      out->port_file = v;
    } else if (std::strcmp(argv[i], "--max-conns") == 0) {
      if (!parse_count("--max-conns", 1, &out->max_conns)) return false;
    } else if (std::strcmp(argv[i], "--max-line-bytes") == 0) {
      if (!parse_count("--max-line-bytes", 64, &out->max_line_bytes)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      const char* v = need_value("--idle-timeout-ms");
      if (v == nullptr) return false;
      out->idle_timeout_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--request-timeout-ms") == 0) {
      const char* v = need_value("--request-timeout-ms");
      if (v == nullptr) return false;
      out->request_timeout_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--grace-ms") == 0) {
      const char* v = need_value("--grace-ms");
      if (v == nullptr) return false;
      out->grace_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--job-threads") == 0) {
      // Each job thread is started with the daemon.
      if (!parse_count("--job-threads", 1, &out->job_threads, kMaxThreads)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      // THREADS' bound.
      if (!parse_count("--threads", 1, &out->threads, kMaxThreads)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--store") == 0) {
      const char* v = need_value("--store");
      if (v == nullptr) return false;
      out->store_prefix = v;
    } else if (std::strcmp(argv[i], "--fallback") == 0) {
      const char* v = need_value("--fallback");
      if (v == nullptr) return false;
      out->fallback_pct = std::atof(v);
    } else if (std::strcmp(argv[i], "--pool-frames") == 0) {
      if (!parse_count("--pool-frames", 1, &out->pool_frames)) return false;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      out->trace = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

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

  net::ServerOptions options;
  options.host = args.host;
  options.port = args.port;
  options.max_connections = args.max_conns;
  options.max_line_bytes = args.max_line_bytes;
  options.idle_timeout_ms = args.idle_timeout_ms;
  options.request_timeout_ms = args.request_timeout_ms;
  options.shutdown_grace_ms = args.grace_ms;
  options.job_threads = args.job_threads;
  options.default_mine_threads = args.threads;
  options.store_prefix = args.store_prefix;
  options.full_remine_fraction = args.fallback_pct / 100.0;
  options.trace = args.trace;
  options.shutdown_flag = &g_shutdown;

  auto server_or = net::MiningServer::Create(db.get(), options);
  if (!server_or.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::MiningServer> server = std::move(server_or).value();

  g_server = server.get();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  // A dying client mid-write must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  std::printf("listening on %s:%u\n", args.host.c_str(), server->port());
  std::fflush(stdout);
  if (!args.port_file.empty()) {
    std::FILE* f = std::fopen(args.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --port-file %s\n",
                   args.port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server->port());
    std::fclose(f);
  }

  Status run = server->Run();
  const net::ServerStats stats = server->Stats();
  g_server = nullptr;
  server.reset();  // joins in-flight jobs before the database closes

  std::fprintf(stderr,
               "served %llu requests on %llu connections "
               "(%llu cancelled, %llu disconnects)\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.cancelled_jobs),
               static_cast<unsigned long long>(stats.disconnects));

  Status closed = db->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "database close failed: %s\n",
                 closed.ToString().c_str());
    return 1;
  }
  if (!run.ok()) {
    std::fprintf(stderr, "server loop failed: %s\n", run.ToString().c_str());
    return 1;
  }
  return 0;
}
