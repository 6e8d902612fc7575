#include "net/server.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include <algorithm>

#include "common/logging.h"
#include "core/mining_planner.h"
#include "core/miner_registry.h"
#include "core/rules.h"
#include "exec/worker_pool.h"
#include "net/line_buffer.h"
#include "net/protocol.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/local_backend.h"

namespace setm::net {

namespace {

/// Process-wide `setm_srv_*` series, resolved once (the same registry the
/// STATS verb exports, so the server reports on itself).
struct SrvMetrics {
  obs::Counter* connections_total;
  obs::Gauge* connections_active;
  obs::Counter* requests_total;
  obs::Counter* rejected_connections_total;
  obs::Counter* rejected_busy_total;
  obs::Counter* oversized_lines_total;
  obs::Counter* parse_errors_total;
  obs::Counter* disconnects_total;
  obs::Counter* cancelled_jobs_total;
  obs::Counter* request_timeouts_total;
  obs::Counter* idle_closes_total;
  obs::Counter* bytes_read_total;
  obs::Counter* bytes_written_total;
  obs::Histogram* request_micros;
};

SrvMetrics& Srv() {
  static SrvMetrics m = [] {
    auto* reg = obs::MetricsRegistry::Global();
    SrvMetrics s;
    s.connections_total = reg->GetCounter(
        "setm_srv_connections_total", "connections accepted by the server");
    s.connections_active =
        reg->GetGauge("setm_srv_connections_active", "open connections");
    s.requests_total = reg->GetCounter("setm_srv_requests_total",
                                       "request lines parsed successfully");
    s.rejected_connections_total =
        reg->GetCounter("setm_srv_rejected_connections_total",
                        "connections refused by the max-connections cap");
    s.rejected_busy_total =
        reg->GetCounter("setm_srv_rejected_busy_total",
                        "requests refused because one was already in flight");
    s.oversized_lines_total = reg->GetCounter(
        "setm_srv_oversized_lines_total", "request lines over the byte cap");
    s.parse_errors_total =
        reg->GetCounter("setm_srv_parse_errors_total",
                        "request lines answered with a parse error");
    s.disconnects_total = reg->GetCounter("setm_srv_disconnects_total",
                                          "client-initiated disconnects");
    s.cancelled_jobs_total =
        reg->GetCounter("setm_srv_cancelled_jobs_total",
                        "jobs cancelled (disconnect, timeout, shutdown)");
    s.request_timeouts_total =
        reg->GetCounter("setm_srv_request_timeouts_total",
                        "jobs cancelled by the request timeout");
    s.idle_closes_total = reg->GetCounter(
        "setm_srv_idle_closes_total", "connections closed by the idle timeout");
    s.bytes_read_total =
        reg->GetCounter("setm_srv_bytes_read_total", "bytes read from clients");
    s.bytes_written_total = reg->GetCounter("setm_srv_bytes_written_total",
                                            "bytes written to clients");
    s.request_micros = reg->GetHistogram(
        "setm_srv_request_micros",
        "dispatch-to-completion latency of mining jobs, microseconds");
    return s;
  }();
  return m;
}

obs::Counter* VerbCounter(Verb verb) {
  return obs::MetricsRegistry::Global()->GetCounter(
      std::string("setm_srv_requests_") + VerbName(verb) + "_total",
      "requests by verb");
}

/// An APPEND's or MERGE's payload: its lines up to ".", parsed as they
/// arrive, or drained after the first refused line. APPEND's lines are
/// transactions, MERGE's are candidate keys; both share the batch cap.
struct Payload {
  Command cmd;
  /// The verb's line parser, chosen when the command arrives: parses one
  /// line into `rows` or `keys`.
  Status (*parse)(const std::string& line, Payload* payload) = nullptr;
  size_t lines = 0;                ///< lines parsed
  TransactionDb rows;              ///< APPEND
  std::vector<CandidateKey> keys;  ///< MERGE
  Status error;  ///< the refusal answered after "." (kPayloadDrain)
};

Status ParseRowInto(const std::string& line, Payload* payload) {
  auto row_or = ParseAppendRow(line);
  if (!row_or.ok()) return row_or.status();
  payload->rows.push_back(std::move(row_or).value());
  return Status::OK();
}

Status ParseKeyInto(const std::string& line, Payload* payload) {
  auto key_or = ParseKeyLine(line);
  if (!key_or.ok()) return key_or.status();
  payload->keys.push_back(key_or.value());
  return Status::OK();
}

}  // namespace

/// One connected client, owned by the loop thread.
struct MiningServer::Session {
  enum class State {
    kCommand,       ///< expecting a request line
    kPayload,       ///< collecting APPEND rows or MERGE keys until "."
    kPayloadDrain,  ///< refused or bad line: swallow lines until ".", then ERR
    kClosing,       ///< QUIT/shutdown: flush, then close; input ignored
  };

  Session(uint64_t id_in, int fd_in, const ServerOptions& options)
      : id(id_in),
        fd(fd_in),
        in(options.max_line_bytes),
        out(options.max_write_buffer_bytes) {}

  uint64_t id;
  int fd;
  LineBuffer in;
  WriteBuffer out;
  State state = State::kCommand;
  /// The in-flight job (at most one per connection).
  std::shared_ptr<Job> job;
  /// The last successful MINE/APPEND answer, the input RULES works on.
  std::shared_ptr<const FrequentItemsets> last_itemsets;
  /// The APPEND or MERGE being collected (kPayload, kPayloadDrain).
  Payload payload;
  /// The connection's shard run (installed by a successful LCOUNT, driven
  /// by MERGE requests, replaced by the next LCOUNT).
  std::shared_ptr<shard::LocalShardBackend> shard_run;
  WallTimer activity;
};

/// One dispatched request. The loop thread fills the inputs before Submit,
/// the worker fills the results before Notify; the pool and pipe mutexes
/// order the two phases, so neither side needs further locking (the cancel
/// flag and timeout bit, written concurrently, are atomics).
struct MiningServer::Job {
  uint64_t id = 0;
  uint64_t session_id = 0;
  Command cmd;
  CancelFlag cancel;
  std::atomic<bool> timed_out{false};
  WallTimer dispatched;
  TransactionDb append_batch;                             ///< APPEND input
  std::shared_ptr<const FrequentItemsets> rules_input;    ///< RULES input
  /// LCOUNT/MERGE: the shard backend this job drives. A fresh backend for
  /// LCOUNT (installed into the session on success), the session's current
  /// run for MERGE.
  std::shared_ptr<shard::LocalShardBackend> shard_backend;
  std::vector<CandidateKey> merge_keys;                   ///< MERGE input

  // Worker-filled results.
  std::string response;  ///< fully framed (OK payload or ERR line)
  std::shared_ptr<const FrequentItemsets> result_itemsets;
  /// LCOUNT success: FinishJob installs shard_backend as the session's
  /// run. Any shard-job failure instead tears the session's run down.
  bool shard_install = false;
  bool shard_teardown = false;
  bool cancelled_result = false;
  std::unique_ptr<obs::TraceSpan> trace_root;
};

namespace {

/// The per-job cancellation seam: vetoes the next iteration once the loop
/// thread cancelled the job (disconnect, QUIT, shutdown) or the request
/// timeout elapsed. Runs on the job thread inside the mining loop.
class JobObserver : public MiningObserver {
 public:
  JobObserver(CancelFlag* cancel, std::atomic<bool>* timed_out,
              const WallTimer* dispatched, const ServerOptions* options)
      : cancel_(cancel),
        timed_out_(timed_out),
        dispatched_(dispatched),
        options_(options) {}

  bool OnIteration(const IterationStats& stats) override {
    if (options_->hooks.on_iteration) options_->hooks.on_iteration(stats);
    if (options_->request_timeout_ms > 0 &&
        dispatched_->ElapsedSeconds() * 1000.0 >
            static_cast<double>(options_->request_timeout_ms)) {
      timed_out_->store(true, std::memory_order_relaxed);
      return false;
    }
    return !cancel_->cancelled();
  }

 private:
  CancelFlag* cancel_;
  std::atomic<bool>* timed_out_;
  const WallTimer* dispatched_;
  const ServerOptions* options_;
};

/// An LCOUNT or MERGE answer: the info line of the relation the call wrote,
/// then its counts, (parent id, item, count) rows in key order, as
/// "<parent id> <item> <count>" lines, one per key: the count's own merge
/// sums the rows of a count above INT32_MAX back. Replies carry no
/// timings, so responses to the same question are byte-identical.
std::string FrameShardReply(const Command& cmd,
                            const shard::ShardReply& reply) {
  const auto n = [](uint64_t v) { return std::to_string(v); };
  const std::string info =
      cmd.verb == Verb::kLcount
          ? "lcount k=1 transactions=" + n(reply.transactions) +
                " rprime=" + n(reply.r_prime_rows) +
                " rbytes=" + n(reply.r_bytes) + " rpages=" + n(reply.r_pages)
          : "merge k=" + n(cmd.shard_k) + " rows=" + n(reply.r_rows) +
                " bytes=" + n(reply.r_bytes) + " pages=" + n(reply.r_pages) +
                " rprime=" + n(reply.r_prime_rows);
  std::string payload;
  std::vector<std::unique_ptr<IntRowCursor>> rows;
  rows.push_back(std::make_unique<IntArrayCursor>(&reply.counts, 3));
  // An array cursor never fails, and neither does the line append.
  (void)SumByKey(2, std::move(rows), [&](const ItemId* key, int64_t count) {
    payload += n(key[0]) + ' ' + n(key[1]) + ' ' + n(count) + '\n';
    return Status::OK();
  });
  return FrameOk(info, payload);
}

}  // namespace

MiningServer::MiningServer(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

MiningServer::~MiningServer() {
  RequestShutdown();
  if (run_thread_.joinable()) run_thread_.join();
  for (auto& [id, job] : jobs_) job->cancel.Cancel();
  // job_pool_ (declared last, destroyed first) joins in-flight jobs here.
  job_pool_.reset();
  for (auto& [id, session] : sessions_) ::close(session->fd);
  sessions_.clear();
}

Result<std::unique_ptr<MiningServer>> MiningServer::Create(
    Database* db, ServerOptions options) {
  if (db == nullptr) {
    return Status::InvalidArgument("server requires an open database");
  }
  if (options.job_threads == 0) options.job_threads = 1;
  if (options.default_mine_threads == 0) options.default_mine_threads = 1;
  if (options.max_connections == 0) options.max_connections = 1;
  std::unique_ptr<MiningServer> server(
      new MiningServer(db, std::move(options)));

  auto loop_or = EventLoop::Create();
  if (!loop_or.ok()) return loop_or.status();
  server->loop_ = std::move(loop_or).value();

  auto pipe_or = CompletionPipe::Create();
  if (!pipe_or.ok()) return pipe_or.status();
  server->completions_ = std::move(pipe_or).value();

  auto listener_or = Listener::Bind(server->options_.host,
                                    server->options_.port,
                                    server->options_.backlog);
  if (!listener_or.ok()) return listener_or.status();
  server->listener_ = std::move(listener_or).value();
  server->bound_port_ = server->listener_->port();

  server->job_pool_ =
      std::make_unique<WorkerPool>(server->options_.job_threads);

  MiningServer* s = server.get();
  SETM_RETURN_IF_ERROR(server->loop_->Add(
      server->listener_->fd(), kReadEvent,
      [s](uint32_t) { s->AcceptPending(); }));
  SETM_RETURN_IF_ERROR(server->loop_->Add(
      server->completions_->read_fd(), kReadEvent,
      [s](uint32_t) { s->DrainCompletions(); }));
  return server;
}

uint16_t MiningServer::port() const { return bound_port_; }

void MiningServer::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_relaxed);
  if (loop_ != nullptr) loop_->Wakeup();
}

Status MiningServer::Start() {
  if (run_thread_.joinable()) {
    return Status::AlreadyExists("server already started");
  }
  run_thread_ = std::thread([this] {
    Status s = Run();
    std::lock_guard<std::mutex> lock(run_status_mutex_);
    run_status_ = s;
  });
  return Status::OK();
}

Status MiningServer::Stop() {
  RequestShutdown();
  if (run_thread_.joinable()) run_thread_.join();
  std::lock_guard<std::mutex> lock(run_status_mutex_);
  return run_status_;
}

ServerStats MiningServer::Stats() const {
  ServerStats out;
  out.connections_accepted = stats_.connections_accepted.load();
  out.connections_active = stats_.connections_active.load();
  out.requests = stats_.requests.load();
  out.disconnects = stats_.disconnects.load();
  out.cancelled_jobs = stats_.cancelled_jobs.load();
  out.rejected_connections = stats_.rejected_connections.load();
  out.rejected_busy = stats_.rejected_busy.load();
  out.parse_errors = stats_.parse_errors.load();
  out.oversized_lines = stats_.oversized_lines.load();
  out.request_timeouts = stats_.request_timeouts.load();
  out.idle_closes = stats_.idle_closes.load();
  return out;
}

Status MiningServer::Run() {
  SETM_LOG(kInfo) << "serving on " << options_.host << ":" << bound_port_
                  << " (" << options_.job_threads << " job threads)";
  while (!stop_loop_) {
    const int timeout_ms = shutting_down_ ? 20 : 100;
    auto n_or = loop_->PollOnce(timeout_ms);
    if (!n_or.ok()) return n_or.status();
    Tick();
  }
  std::vector<uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  for (uint64_t id : ids) CloseSession(id, "server stopped");
  SETM_LOG(kInfo) << "server stopped";
  return Status::OK();
}

void MiningServer::Tick() {
  if (!shutting_down_ &&
      (shutdown_requested_.load(std::memory_order_relaxed) ||
       (options_.shutdown_flag != nullptr && *options_.shutdown_flag != 0))) {
    BeginShutdown();
  }

  if (options_.request_timeout_ms > 0) {
    for (auto& [id, session] : sessions_) {
      Job* job = session->job.get();
      if (job != nullptr && !job->cancel.cancelled() &&
          job->dispatched.ElapsedSeconds() * 1000.0 >
              static_cast<double>(options_.request_timeout_ms)) {
        job->timed_out.store(true, std::memory_order_relaxed);
        job->cancel.Cancel();
      }
    }
  }

  if (options_.idle_timeout_ms > 0 && !shutting_down_) {
    std::vector<uint64_t> idle;
    for (auto& [id, session] : sessions_) {
      if (session->job == nullptr && session->out.empty() &&
          session->state == Session::State::kCommand &&
          session->activity.ElapsedSeconds() * 1000.0 >
              static_cast<double>(options_.idle_timeout_ms)) {
        idle.push_back(id);
      }
    }
    for (uint64_t id : idle) {
      stats_.idle_closes.fetch_add(1);
      Srv().idle_closes_total->Increment();
      CloseSession(id, "idle timeout");
    }
  }

  if (shutting_down_) {
    const bool grace_over =
        shutdown_timer_.ElapsedSeconds() * 1000.0 >
        static_cast<double>(options_.shutdown_grace_ms);
    if (jobs_.empty()) {
      std::vector<uint64_t> done;
      for (auto& [id, session] : sessions_) {
        if (session->out.empty() || grace_over) done.push_back(id);
      }
      for (uint64_t id : done) CloseSession(id, "shutdown");
      if (sessions_.empty()) stop_loop_ = true;
    } else if (grace_over) {
      SETM_LOG(kWarn) << "shutdown grace elapsed with " << jobs_.size()
                      << " jobs still running; abandoning their responses";
      std::vector<uint64_t> ids;
      for (const auto& [id, session] : sessions_) ids.push_back(id);
      for (uint64_t id : ids) CloseSession(id, "shutdown (grace elapsed)");
      stop_loop_ = true;
    }
  }
}

void MiningServer::BeginShutdown() {
  shutting_down_ = true;
  shutdown_timer_.Restart();
  SETM_LOG(kInfo) << "shutdown requested: " << sessions_.size()
                  << " connections, " << jobs_.size() << " jobs in flight";
  if (listener_ != nullptr) {
    loop_->Remove(listener_->fd());
    listener_.reset();  // stop accepting; closes the socket
  }
  for (auto& [id, session] : sessions_) {
    session->state = Session::State::kClosing;
    if (session->job != nullptr) session->job->cancel.Cancel();
  }
}

void MiningServer::AcceptPending() {
  while (listener_ != nullptr) {
    auto fd_or = listener_->Accept();
    if (!fd_or.ok()) {
      SETM_LOG(kWarn) << "accept failed: " << fd_or.status().ToString();
      return;
    }
    const int fd = fd_or.value();
    if (fd < 0) return;  // drained
    stats_.connections_accepted.fetch_add(1);
    Srv().connections_total->Increment();
    if (shutting_down_ || sessions_.size() >= options_.max_connections) {
      stats_.rejected_connections.fetch_add(1);
      Srv().rejected_connections_total->Increment();
      const std::string err = FrameError(Status::ResourceExhausted(
          shutting_down_
              ? "server shutting down"
              : "server at --max-conns " +
                    std::to_string(options_.max_connections) +
                    " connections"));
      // Best-effort: the empty socket buffer virtually always takes it.
      [[maybe_unused]] ssize_t n = ::write(fd, err.data(), err.size());
      ::close(fd);
      continue;
    }
    const uint64_t id = next_session_id_++;
    auto session = std::make_unique<Session>(id, fd, options_);
    Status added = loop_->Add(
        fd, kReadEvent, [this, id](uint32_t events) {
          OnSessionEvent(id, events);
        });
    if (!added.ok()) {
      SETM_LOG(kWarn) << "cannot register connection: " << added.ToString();
      ::close(fd);
      continue;
    }
    sessions_[id] = std::move(session);
    stats_.connections_active.store(sessions_.size());
    Srv().connections_active->Set(static_cast<int64_t>(sessions_.size()));
  }
}

void MiningServer::OnSessionEvent(uint64_t session_id, uint32_t events) {
  if (events & kWriteEvent) {
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    FlushSession(it->second.get());
  }
  if ((events & kReadEvent) == 0) return;

  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;  // closed by the flush above
  Session* session = it->second.get();

  char buf[4096];
  while (true) {
    const ssize_t n = ::read(session->fd, buf, sizeof(buf));
    if (n > 0) {
      Srv().bytes_read_total->Increment(static_cast<uint64_t>(n));
      session->in.Feed(buf, static_cast<size_t>(n));
      session->activity.Restart();
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      if (n < 0 && errno == EINTR) continue;
      // EOF or a hard error: the client went away. Cancel its job — the
      // observer vetoes the next iteration — and free the connection slot.
      stats_.disconnects.fetch_add(1);
      Srv().disconnects_total->Increment();
      CloseSession(session_id, n == 0 ? "client disconnected"
                                      : "read error");
      return;
    }
    break;  // EAGAIN: drained
  }

  const size_t oversized = session->in.TakeOversized();
  for (size_t i = 0; i < oversized; ++i) {
    stats_.oversized_lines.fetch_add(1);
    Srv().oversized_lines_total->Increment();
    auto sit = sessions_.find(session_id);
    if (sit == sessions_.end()) return;  // Send() may close on overflow
    Send(sit->second.get(),
         FrameError(Status::ResourceExhausted(
             "line exceeds " + std::to_string(options_.max_line_bytes) +
             " bytes")));
  }
  ProcessLines(session_id);
}

void MiningServer::ProcessLines(uint64_t session_id) {
  std::string line;
  while (true) {
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;  // closed by a handler below
    Session* session = it->second.get();
    if (!session->in.NextLine(&line)) return;
    switch (session->state) {
      case Session::State::kCommand:
        HandleCommand(session, line);
        break;
      case Session::State::kPayload:
      case Session::State::kPayloadDrain:
        HandleData(session, line);
        break;
      case Session::State::kClosing:
        break;  // input after QUIT is ignored
    }
  }
}

void MiningServer::HandleCommand(Session* session, const std::string& line) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return;

  auto cmd_or = ParseCommand(line);
  if (!cmd_or.ok()) {
    stats_.parse_errors.fetch_add(1);
    Srv().parse_errors_total->Increment();
    Send(session, FrameError(cmd_or.status()));
    return;
  }
  Command cmd = std::move(cmd_or).value();
  stats_.requests.fetch_add(1);
  Srv().requests_total->Increment();
  VerbCounter(cmd.verb)->Increment();

  switch (cmd.verb) {
    case Verb::kPing:
      Send(session, FrameOk("pong", ""));
      return;
    case Verb::kQuit: {
      if (session->job != nullptr) session->job->cancel.Cancel();
      session->state = Session::State::kClosing;
      Send(session, FrameOk("bye", ""));
      return;
    }
    case Verb::kStats: {
      obs::MetricsSnapshot snapshot =
          obs::MetricsRegistry::Global()->Snapshot();
      std::string payload = cmd.stats_format == "json"
                                ? obs::RenderJson(snapshot)
                            : cmd.stats_format == "prom"
                                ? obs::RenderPrometheus(snapshot)
                                : obs::RenderText(snapshot);
      Send(session, FrameOk("stats format=" + cmd.stats_format, payload));
      return;
    }
    default:
      break;
  }

  // Job verbs: one in flight per connection.
  if (session->job != nullptr) {
    stats_.rejected_busy.fetch_add(1);
    Srv().rejected_busy_total->Increment();
    Refuse(session, cmd.verb,
           Status::ResourceExhausted(
               "a request is already in flight on this connection; wait for "
               "its response (PING, STATS and QUIT are always served)"));
    return;
  }

  if (cmd.verb == Verb::kMine || cmd.verb == Verb::kExplain ||
      cmd.verb == Verb::kAppend) {
    auto info_or = MinerRegistry::Info(cmd.algo);
    if (!info_or.ok()) {
      Refuse(session, cmd.verb, info_or.status());
      return;
    }
  }

  if (cmd.verb == Verb::kRelease) {
    // No job is in flight on this connection, so nothing else touches the
    // run: EndRun frees R_1 and R_k here, even while the task of the job
    // that last drove the run still holds a reference to the backend. A
    // run keeps its relations in memory and its spilled counts in scratch
    // pages of the database's thread-safe pool, which EndRun releases.
    const bool had_run = session->shard_run != nullptr;
    if (had_run) {
      (void)session->shard_run->EndRun();
      session->shard_run.reset();
    }
    Send(session, FrameOk(had_run ? "release run=1" : "release run=0", ""));
    return;
  }
  if (cmd.verb == Verb::kAppend || cmd.verb == Verb::kMerge) {
    // MERGE continues the connection's run; LCOUNT replaces it.
    if (cmd.verb == Verb::kMerge && session->shard_run == nullptr) {
      Refuse(session, cmd.verb,
             Status::NotFound("no shard run on this connection; start with "
                              "LCOUNT <table> K 1"));
      return;
    }
    session->state = Session::State::kPayload;
    session->payload = Payload{};
    session->payload.parse =
        cmd.verb == Verb::kMerge ? ParseKeyInto : ParseRowInto;
    session->payload.cmd = std::move(cmd);
    return;  // lines follow; the response comes after "."
  }

  auto job = std::make_shared<Job>();
  if (cmd.verb == Verb::kLcount) {
    job->shard_backend =
        std::make_shared<shard::LocalShardBackend>(db_, "srv:" + cmd.table);
  }
  if (cmd.verb == Verb::kRules) {
    if (session->last_itemsets == nullptr) {
      Send(session,
           FrameError(Status::NotFound(
               "no mining result on this connection; run MINE first")));
      return;
    }
    job->rules_input = session->last_itemsets;
  }
  job->cmd = std::move(cmd);
  DispatchJob(session, std::move(job));
}

void MiningServer::Refuse(Session* session, Verb verb, Status error) {
  if (verb == Verb::kAppend || verb == Verb::kMerge) {
    session->state = Session::State::kPayloadDrain;
    session->payload.error = std::move(error);
  } else {
    Send(session, FrameError(error));
  }
}

void MiningServer::HandleData(Session* session, const std::string& line) {
  Payload& payload = session->payload;
  if (line == ".") {
    const bool refused = session->state == Session::State::kPayloadDrain;
    session->state = Session::State::kCommand;
    if (refused) {
      Send(session, FrameError(payload.error));
      return;
    }
    auto job = std::make_shared<Job>();
    job->cmd = std::move(payload.cmd);
    job->append_batch = std::move(payload.rows);
    job->merge_keys = std::move(payload.keys);
    if (job->cmd.verb == Verb::kMerge) job->shard_backend = session->shard_run;
    DispatchJob(session, std::move(job));
    return;
  }
  if (session->state == Session::State::kPayloadDrain) return;

  const bool merge = payload.cmd.verb == Verb::kMerge;
  Status refused;
  if (payload.lines >= options_.max_append_rows) {
    refused = Status::ResourceExhausted(
        std::string(merge ? "MERGE" : "APPEND") + " batch exceeds " +
        std::to_string(options_.max_append_rows) + (merge ? " keys" : " rows"));
  } else {
    refused = payload.parse(line, &payload);
    if (refused.ok()) {
      ++payload.lines;
      return;
    }
    stats_.parse_errors.fetch_add(1);
    Srv().parse_errors_total->Increment();
  }
  session->state = Session::State::kPayloadDrain;
  payload.error = std::move(refused);
  payload.rows.clear();
  payload.keys.clear();
  // A refused key line ends the run, as a refused C_k does. No job is in
  // flight while the keys are collected, so nothing else touches the run.
  if (merge && session->shard_run != nullptr) {
    (void)session->shard_run->EndRun();
    session->shard_run.reset();
  }
}

void MiningServer::DispatchJob(Session* session, std::shared_ptr<Job> job) {
  job->id = next_job_id_++;
  job->session_id = session->id;
  job->dispatched.Restart();
  session->job = job;
  jobs_[job->id] = job;
  std::shared_ptr<Job> j = std::move(job);
  job_pool_->Submit([this, j] { RunJobBody(j); });
}

void MiningServer::RunJobBody(const std::shared_ptr<Job>& job) {
  Status status;
  if (job->cancel.cancelled()) {
    status = Status::Cancelled("request cancelled before it started");
  } else if (job->cmd.verb == Verb::kRules) {
    // Pure in-memory work on a shared snapshot: no database, no mutex.
    if (options_.trace) {
      job->trace_root = std::make_unique<obs::TraceSpan>("request");
      job->trace_root->AddTag("verb", VerbName(job->cmd.verb));
    }
    status = ExecuteRulesJob(job.get());
  } else {
    std::lock_guard<std::mutex> lock(db_mutex_);
    if (job->cancel.cancelled()) {
      status = Status::Cancelled("request cancelled while queued");
    } else {
      // The trace root starts inside the mutex so its page-read delta
      // covers exactly this job's work, not a concurrent job's.
      if (options_.trace) {
        job->trace_root =
            std::make_unique<obs::TraceSpan>("request", db_->io_stats());
        job->trace_root->AddTag("verb", VerbName(job->cmd.verb));
        job->trace_root->AddTag("table", job->cmd.table);
      }
      const Verb verb = job->cmd.verb;
      status = verb == Verb::kLcount || verb == Verb::kMerge
                   ? ExecuteShardJob(job.get())
                   : ExecutePlannerJob(job.get());
      // A failed shard job leaves the run unusable (the iteration protocol
      // is a lock-step sequence); release its scratch while the mutex is
      // still held and have FinishJob drop the session's handle.
      if (!status.ok() && job->shard_backend != nullptr) {
        job->shard_backend->EndRun();
        job->shard_teardown = true;
      }
    }
  }

  if (!status.ok()) {
    if (status.IsCancelled()) {
      job->cancelled_result = true;
      if (job->timed_out.load(std::memory_order_relaxed)) {
        status = Status::Cancelled(
            "request exceeded the " +
            std::to_string(options_.request_timeout_ms) +
            " ms request timeout");
      }
    }
    job->response = FrameError(status);
  }
  if (job->trace_root != nullptr) {
    job->trace_root->AddTag(
        "status",
        status.ok() ? "ok" : std::string(StatusCodeName(status.code())));
    job->trace_root->End();
  }
  completions_->Notify(job->id);
}

Status MiningServer::ExecutePlannerJob(Job* job) {
  const Command& cmd = job->cmd;
  auto table_or = db_->catalog()->ResolveTable(cmd.table);
  if (!table_or.ok()) return table_or.status();

  auto info_or = MinerRegistry::Info(cmd.algo);
  if (!info_or.ok()) return info_or.status();
  size_t threads = cmd.threads;
  if (threads == 0) {
    threads = info_or.value().honors_threads ? options_.default_mine_threads
                                             : 1;
  }

  JobObserver observer(&job->cancel, &job->timed_out, &job->dispatched,
                       &options_);
  const TableBacking backing =
      db_->persistent() ? TableBacking::kHeap : TableBacking::kMemory;

  PlannerOptions planner_options;
  planner_options.store_prefix = options_.store_prefix;
  planner_options.store_backing = backing;
  planner_options.algorithm = cmd.algo;
  planner_options.setm.storage = backing;
  planner_options.setm.num_threads = threads;
  planner_options.full_remine_fraction = options_.full_remine_fraction;

  PlanRequest request;
  request.table = table_or.value();
  request.options.min_support = cmd.min_support;
  request.options.min_support_count = cmd.min_support_count;
  request.options.max_pattern_length = cmd.max_k;
  request.options.observer = &observer;
  if (cmd.verb == Verb::kAppend && !job->append_batch.empty()) {
    request.append = &job->append_batch;
  }
  request.trace = job->trace_root.get();

  // A planner per job is cheap (the cache keys on catalog relations, which
  // are shared); per-request ALGO/THREADS never leak into another request.
  MiningPlanner planner(db_, planner_options);
  if (cmd.verb == Verb::kExplain) {
    auto plan_or = planner.Plan(request);
    if (!plan_or.ok()) return plan_or.status();
    const MiningPlan& plan = plan_or.value();
    job->response = FrameOk(
        std::string("explain strategy=") + PlanStrategyName(plan.strategy),
        plan.Explain());
    return Status::OK();
  }
  auto exec_or = planner.Execute(request);
  if (!exec_or.ok()) return exec_or.status();
  PlanExecution exec = std::move(exec_or).value();

  auto itemsets =
      std::make_shared<FrequentItemsets>(std::move(exec.result.itemsets));
  itemsets->Normalize();
  job->result_itemsets = itemsets;

  // The info line is deterministic — no timing, no strategy — so answers to
  // the same question are byte-identical no matter which plan served them.
  char info[160];
  if (cmd.verb == Verb::kAppend) {
    std::snprintf(info, sizeof(info),
                  "appended=%zu patterns=%zu transactions=%llu",
                  job->append_batch.size(), itemsets->TotalPatterns(),
                  static_cast<unsigned long long>(itemsets->num_transactions));
  } else {
    std::snprintf(info, sizeof(info),
                  "patterns=%zu transactions=%llu maxk=%zu",
                  itemsets->TotalPatterns(),
                  static_cast<unsigned long long>(itemsets->num_transactions),
                  itemsets->MaxSize());
  }
  job->response = FrameOk(info, RenderItemsets(*itemsets));
  return Status::OK();
}

Status MiningServer::ExecuteShardJob(Job* job) {
  const Command& cmd = job->cmd;
  if (cmd.verb == Verb::kLcount) {
    // A new run. Scratch stays in memory regardless of the database's
    // backing: shard relations are per-request transients, and the remote
    // coordinator retries elsewhere on failure, so durability buys nothing.
    shard::ShardRunOptions run;
    run.storage = TableBacking::kMemory;
    run.count_method = cmd.shard_method == "hash" ? CountMethod::kHash
                                                  : CountMethod::kSortMerge;
    run.filter_r1 = cmd.shard_filter;
    run.max_pattern_length = cmd.max_k;
    job->shard_backend->BindTable(cmd.table);
    SETM_RETURN_IF_ERROR(job->shard_backend->BeginRun(run));
  }
  auto reply_or =
      cmd.verb == Verb::kLcount
          ? job->shard_backend->CountFirstIteration()
          : job->shard_backend->ApplyGlobalCk(cmd.shard_k, job->merge_keys);
  if (!reply_or.ok()) return reply_or.status();
  job->response = FrameShardReply(cmd, reply_or.value());
  job->shard_install = cmd.verb == Verb::kLcount;
  return Status::OK();
}

Status MiningServer::ExecuteRulesJob(Job* job) {
  JobObserver observer(&job->cancel, &job->timed_out, &job->dispatched,
                       &options_);
  MiningOptions options;
  options.min_confidence = job->cmd.min_confidence;
  options.observer = &observer;
  auto rules_or =
      GenerateRules(*job->rules_input, options, job->cmd.rule_mode);
  if (!rules_or.ok()) return rules_or.status();
  const std::vector<AssociationRule>& rules = rules_or.value();
  job->response = FrameOk("rules=" + std::to_string(rules.size()),
                          FormatRulesCsv(rules));
  return Status::OK();
}

void MiningServer::DrainCompletions() {
  for (uint64_t token : completions_->Drain()) FinishJob(token);
}

void MiningServer::FinishJob(uint64_t job_id) {
  auto jit = jobs_.find(job_id);
  if (jit == jobs_.end()) return;
  std::shared_ptr<Job> job = jit->second;
  jobs_.erase(jit);

  Srv().request_micros->ObserveDurationMicros(
      job->dispatched.ElapsedSeconds());
  if (job->cancelled_result) {
    stats_.cancelled_jobs.fetch_add(1);
    Srv().cancelled_jobs_total->Increment();
    if (job->timed_out.load(std::memory_order_relaxed)) {
      stats_.request_timeouts.fetch_add(1);
      Srv().request_timeouts_total->Increment();
    }
  }
  if (job->trace_root != nullptr) {
    std::fprintf(stderr, "trace:\n%s",
                 job->trace_root->Render(2).c_str());
  }

  auto sit = sessions_.find(job->session_id);
  if (sit == sessions_.end()) return;  // client gone; response dropped
  Session* session = sit->second.get();
  if (session->job != nullptr && session->job->id == job->id) {
    session->job.reset();
  }
  if (job->result_itemsets != nullptr) {
    session->last_itemsets = job->result_itemsets;
  }
  if (job->shard_install) {
    session->shard_run = job->shard_backend;
  } else if (job->shard_teardown &&
             session->shard_run == job->shard_backend) {
    session->shard_run.reset();
  }
  session->activity.Restart();
  if (session->state == Session::State::kClosing) {
    // The client already said QUIT (or shutdown began); it got its "bye".
    FlushSession(session);
    return;
  }
  Send(session, job->response);
}

void MiningServer::Send(Session* session, const std::string& framed) {
  Status appended = session->out.Append(framed);
  if (!appended.ok()) {
    SETM_LOG(kWarn) << "session " << session->id
                    << ": write backlog over "
                    << options_.max_write_buffer_bytes
                    << " bytes, closing: " << appended.ToString();
    CloseSession(session->id, "write backlog exceeded");
    return;
  }
  FlushSession(session);
}

void MiningServer::FlushSession(Session* session) {
  auto n_or = session->out.DrainTo(session->fd);
  if (!n_or.ok()) {
    CloseSession(session->id, "write failed");
    return;
  }
  if (n_or.value() > 0) {
    Srv().bytes_written_total->Increment(n_or.value());
  }
  if (session->out.empty()) {
    if (session->state == Session::State::kClosing &&
        session->job == nullptr) {
      CloseSession(session->id, "quit");
      return;
    }
    loop_->SetInterest(session->fd, kReadEvent);
  } else {
    loop_->SetInterest(session->fd, kReadEvent | kWriteEvent);
  }
}

void MiningServer::CloseSession(uint64_t session_id, const char* reason) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session* session = it->second.get();
  if (session->job != nullptr) session->job->cancel.Cancel();
  SETM_LOG(kInfo) << "session " << session_id << " closed: " << reason;
  loop_->Remove(session->fd);
  ::close(session->fd);
  sessions_.erase(it);
  stats_.connections_active.store(sessions_.size());
  Srv().connections_active->Set(static_cast<int64_t>(sessions_.size()));
}

}  // namespace setm::net
