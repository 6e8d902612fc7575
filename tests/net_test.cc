// Unit and integration tests for src/net: line framing, protocol parsing,
// response framing, and the MiningServer session state machine — admission
// control, busy rejection, disconnect-cancellation, APPEND streaming and
// graceful shutdown — against a real server on a loopback socket.
//
// The suite is tier1 and must stay TSan-clean: every cross-thread seam the
// server has (loop thread vs job pool vs test thread) gets exercised here.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/setm.h"
#include "core/types.h"
#include "net/client.h"
#include "net/line_buffer.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "relational/database.h"

namespace setm::net {
namespace {

// ---------------------------------------------------------------- framing

TEST(LineBufferTest, ReassemblesChunkedLines) {
  LineBuffer buffer(64);
  std::string line;
  buffer.Feed("PI", 2);
  EXPECT_FALSE(buffer.NextLine(&line));
  buffer.Feed("NG\nQU", 5);
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "PING");
  EXPECT_FALSE(buffer.NextLine(&line));
  buffer.Feed("IT\n", 3);
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "QUIT");
}

TEST(LineBufferTest, SplitsCoalescedLinesAndStripsCrlf) {
  LineBuffer buffer(64);
  const std::string wire = "a\r\nb\nc\r\n";
  buffer.Feed(wire.data(), wire.size());
  std::string line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "b");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "c");
  EXPECT_FALSE(buffer.NextLine(&line));
  EXPECT_EQ(buffer.buffered_bytes(), 0u);
}

TEST(LineBufferTest, EmptyLinesSurvive) {
  LineBuffer buffer(64);
  buffer.Feed("\n\nx\n", 4);
  std::string line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "x");
}

TEST(LineBufferTest, OversizedLineDiscardedAndResynced) {
  LineBuffer buffer(8);
  const std::string wire = std::string(100, 'x');
  buffer.Feed(wire.data(), wire.size());  // no newline yet: still discarding
  std::string line;
  EXPECT_FALSE(buffer.NextLine(&line));
  EXPECT_LE(buffer.buffered_bytes(), 8u);  // memory stays bounded
  buffer.Feed("tail\nok\n", 8);
  ASSERT_TRUE(buffer.NextLine(&line));  // "xxx...tail" was eaten whole
  EXPECT_EQ(line, "ok");
  EXPECT_EQ(buffer.TakeOversized(), 1u);
  EXPECT_EQ(buffer.TakeOversized(), 0u);  // take semantics: reset on read
}

TEST(LineBufferTest, CountsEachOversizedLine) {
  LineBuffer buffer(4);
  const std::string wire = "aaaaaaaa\nbbbbbbbb\nok\n";
  buffer.Feed(wire.data(), wire.size());
  std::string line;
  ASSERT_TRUE(buffer.NextLine(&line));
  EXPECT_EQ(line, "ok");
  EXPECT_EQ(buffer.TakeOversized(), 2u);
}

TEST(WriteBufferTest, CapsBacklog) {
  WriteBuffer buffer(8);
  EXPECT_TRUE(buffer.Append("1234").ok());
  Status overflow = buffer.Append("56789");
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(buffer.pending_bytes(), 4u);  // the failed append queued nothing
}

// ---------------------------------------------------------------- parsing

TEST(ProtocolTest, ParsesMineWithAllOptions) {
  auto cmd_or =
      ParseCommand("mine sales support 2.5% algo setm threads 3 maxk 4");
  ASSERT_TRUE(cmd_or.ok()) << cmd_or.status().ToString();
  const Command& cmd = cmd_or.value();
  EXPECT_EQ(cmd.verb, Verb::kMine);
  EXPECT_EQ(cmd.table, "sales");  // table names keep their case
  EXPECT_DOUBLE_EQ(cmd.min_support, 0.025);
  EXPECT_EQ(cmd.min_support_count, 0);
  EXPECT_EQ(cmd.algo, "setm");
  EXPECT_EQ(cmd.threads, 3u);
  EXPECT_EQ(cmd.max_k, 4u);
}

TEST(ProtocolTest, ParsesAbsoluteSupport) {
  auto cmd_or = ParseCommand("MINE Sales SUPPORT 150");
  ASSERT_TRUE(cmd_or.ok());
  EXPECT_EQ(cmd_or.value().table, "Sales");
  EXPECT_EQ(cmd_or.value().min_support_count, 150);
  EXPECT_DOUBLE_EQ(cmd_or.value().min_support, 0.0);
}

TEST(ProtocolTest, ParsesRulesAndStats) {
  auto rules_or = ParseCommand("RULES 70% MODE subsets");
  ASSERT_TRUE(rules_or.ok());
  EXPECT_EQ(rules_or.value().verb, Verb::kRules);
  EXPECT_DOUBLE_EQ(rules_or.value().min_confidence, 0.70);
  EXPECT_EQ(rules_or.value().rule_mode, RuleMode::kAnySubset);

  auto stats_or = ParseCommand("STATS prom");
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or.value().verb, Verb::kStats);
  EXPECT_EQ(stats_or.value().stats_format, "prom");
}

TEST(ProtocolTest, RejectsMalformedLines) {
  const char* bad[] = {
      "FROBNICATE",                 // unknown verb
      "MINE",                       // missing table
      "MINE sales",                 // missing SUPPORT
      "MINE sales SUPPORT",         // missing spec
      "MINE sales SUPPORT -5",      // negative support
      "MINE sales SUPPORT 2% BOGUS 1",  // unknown option
      "MINE sales SUPPORT 2% THREADS x",
      "RULES",                      // missing confidence
      "RULES 120%",                 // out of range
      "RULES 50 MODE sideways",     // unknown mode
      "STATS xml",                  // unknown format
  };
  for (const char* line : bad) {
    auto cmd_or = ParseCommand(line);
    EXPECT_FALSE(cmd_or.ok()) << "accepted: " << line;
    EXPECT_EQ(cmd_or.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

// THREADS shares its bound with `setm_mine --threads`: kMaxThreads is
// accepted, one more is refused as the line is parsed.
TEST(ProtocolTest, ThreadsAreBoundedByKMaxThreads) {
  const std::string line = "MINE sales SUPPORT 2% THREADS ";
  auto most = ParseCommand(line + std::to_string(kMaxThreads));
  ASSERT_TRUE(most.ok()) << most.status().ToString();
  EXPECT_EQ(most.value().threads, kMaxThreads);
  auto past = ParseCommand(line + std::to_string(kMaxThreads + 1));
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past.status().message().find(
                "THREADS must be in [1," + std::to_string(kMaxThreads) + "]"),
            std::string::npos)
      << past.status().ToString();
}

TEST(ProtocolTest, ParsesLcountAndMerge) {
  // Begin form: table, K 1, optional METHOD / FILTER in either order.
  auto begin_or = ParseCommand("LCOUNT sales K 1");
  ASSERT_TRUE(begin_or.ok()) << begin_or.status().ToString();
  EXPECT_EQ(begin_or.value().verb, Verb::kLcount);
  EXPECT_EQ(begin_or.value().table, "sales");
  EXPECT_EQ(begin_or.value().shard_k, 1u);
  EXPECT_EQ(begin_or.value().shard_method, "sortmerge");
  EXPECT_FALSE(begin_or.value().shard_filter);

  auto hashed_or = ParseCommand("lcount Sales k 1 method HASH filter");
  ASSERT_TRUE(hashed_or.ok()) << hashed_or.status().ToString();
  EXPECT_EQ(hashed_or.value().table, "Sales");  // table keeps its case
  EXPECT_EQ(hashed_or.value().shard_method, "hash");
  EXPECT_TRUE(hashed_or.value().shard_filter);

  EXPECT_EQ(hashed_or.value().max_k, 0u);  // no length limit

  auto limited_or = ParseCommand("LCOUNT sales K 1 MAXK 2 FILTER");
  ASSERT_TRUE(limited_or.ok()) << limited_or.status().ToString();
  EXPECT_EQ(limited_or.value().max_k, 2u);
  EXPECT_TRUE(limited_or.value().shard_filter);

  auto merge_or = ParseCommand("MERGE K 2");
  ASSERT_TRUE(merge_or.ok()) << merge_or.status().ToString();
  EXPECT_EQ(merge_or.value().verb, Verb::kMerge);
  EXPECT_EQ(merge_or.value().shard_k, 2u);

  auto release_or = ParseCommand("release");
  ASSERT_TRUE(release_or.ok()) << release_or.status().ToString();
  EXPECT_EQ(release_or.value().verb, Verb::kRelease);
}

TEST(ProtocolTest, RejectsMalformedShardLines) {
  const char* bad[] = {
      "LCOUNT",                        // nothing
      "LCOUNT K",                      // missing k
      "LCOUNT K 1",                    // a run must begin with a table
      "LCOUNT K 2",                    // later iterations are MERGE K <k>
      "LCOUNT K 0",                    // k out of range
      "LCOUNT K 65",                   // k over the cap
      "LCOUNT K x",                    // not a number
      "LCOUNT sales",                  // missing K 1
      "LCOUNT sales K 2",              // new runs begin at K 1
      "LCOUNT sales K 1 METHOD",       // missing method value
      "LCOUNT sales K 1 METHOD tree",  // unknown method
      "LCOUNT sales K 1 MAXK",         // missing MAXK value
      "LCOUNT sales K 1 MAXK 0",       // MAXK out of range
      "LCOUNT sales K 1 MAXK two",     // MAXK not a number
      "LCOUNT sales K 1 BOGUS",        // unknown option
      "MERGE",                         // nothing
      "MERGE K",                       // missing k
      "MERGE K 0",                     // k out of range
      "MERGE K 65",                    // k over the cap
      "MERGE 2",                       // missing K keyword
      "MERGE K 2 EXTRA",               // trailing junk
      "RELEASE K 2",                   // RELEASE takes no arguments
  };
  for (const char* line : bad) {
    auto cmd_or = ParseCommand(line);
    EXPECT_FALSE(cmd_or.ok()) << "accepted: " << line;
    EXPECT_EQ(cmd_or.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ProtocolTest, ParsesMergeKeyLine) {
  auto key_or = ParseKeyLine("3 12");
  ASSERT_TRUE(key_or.ok()) << key_or.status().ToString();
  EXPECT_EQ(key_or.value(), (CandidateKey{3, 12}));
  auto max_or = ParseKeyLine(" 2147483647\t0 ");
  ASSERT_TRUE(max_or.ok()) << max_or.status().ToString();
  EXPECT_EQ(max_or.value(), (CandidateKey{INT32_MAX, 0}));

  const char* bad[] = {
      "",              // empty
      "7",             // one field
      "1 2 3",         // three fields
      "x 1",           // not a number
      "1 2x",          // trailing junk
      "-1 2",          // negative parent
      "1 -2",          // negative item
      "2147483648 1",  // parent beyond int32
      "1 2147483648",  // item beyond int32
  };
  for (const char* line : bad) {
    auto parsed_or = ParseKeyLine(line);
    EXPECT_FALSE(parsed_or.ok()) << "accepted: '" << line << "'";
    EXPECT_EQ(parsed_or.status().code(), StatusCode::kInvalidArgument)
        << line;
  }
}

TEST(ProtocolTest, ParsesAppendRowSortedAndDeduped) {
  auto row_or = ParseAppendRow("42 7 3 7 1");
  ASSERT_TRUE(row_or.ok());
  EXPECT_EQ(row_or.value().id, 42u);
  EXPECT_EQ(row_or.value().items, (std::vector<ItemId>{1, 3, 7}));

  EXPECT_FALSE(ParseAppendRow("42").ok());       // no items
  EXPECT_FALSE(ParseAppendRow("x 1").ok());      // bad id
  EXPECT_FALSE(ParseAppendRow("42 -3").ok());    // negative item
}

TEST(ProtocolTest, DotStuffingRoundTrips) {
  const std::string framed = FrameOk("info", ".hidden\nplain\n..\n");
  // Every payload line that starts with '.' gains a protection dot.
  EXPECT_EQ(framed, "OK info\n..hidden\nplain\n...\n.\n");
  EXPECT_EQ(UnstuffPayloadLine("..hidden"), ".hidden");
  EXPECT_EQ(UnstuffPayloadLine("..."), "..");
  EXPECT_EQ(UnstuffPayloadLine("plain"), "plain");
}

TEST(ProtocolTest, FrameErrorCarriesCodeName) {
  EXPECT_EQ(FrameError(Status::NotFound("no such table")),
            "ERR NotFound no such table\n");
}

// ------------------------------------------------------------ the server

/// A gate the test holds closed to park a mining job mid-iteration: the
/// deterministic handle on "a request is in flight right now".
class IterationGate {
 public:
  /// Blocks the calling (job) thread until Open() when the gate is closed.
  void Hook(const IterationStats&) {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

  /// Waits until a job thread is parked inside the gate.
  bool AwaitEntered(int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this] { return entered_ > 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

TransactionDb TinyTxns() {
  // The paper's Section 4.2 worked example (A=0 .. H=7).
  return {
      {10, {0, 1, 2}}, {20, {0, 1, 3}}, {30, {0, 1, 2}}, {40, {1, 2, 3}},
      {50, {0, 2, 6}}, {60, {0, 3, 6}}, {70, {0, 4, 7}}, {80, {3, 4, 5}},
      {90, {3, 4, 5}}, {99, {3, 4, 5}},
  };
}

/// One in-memory database + server, bound to an ephemeral loopback port.
struct ServerFixture {
  explicit ServerFixture(ServerOptions options = {}) {
    auto sales = LoadSalesTable(&db, "sales", TinyTxns(), TableBacking::kMemory);
    EXPECT_TRUE(sales.ok()) << sales.status().ToString();
    options.port = 0;
    options.store_prefix = "";  // per-test isolation: no shared result cache
    auto server_or = MiningServer::Create(&db, std::move(options));
    EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
    server = std::move(server_or).value();
    EXPECT_TRUE(server->Start().ok());
  }

  ~ServerFixture() {
    if (server != nullptr) {
      EXPECT_TRUE(server->Stop().ok());
    }
  }

  std::unique_ptr<BlockingClient> Connect() {
    auto client_or = BlockingClient::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client_or.ok()) << client_or.status().ToString();
    return std::move(client_or).value();
  }

  /// Polls a server stat until it becomes true or the deadline passes.
  template <typename Predicate>
  bool AwaitStats(Predicate pred, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred(server->Stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred(server->Stats());
  }

  Database db;
  std::unique_ptr<MiningServer> server;
};

TEST(MiningServerTest, PingMineRulesQuit) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  auto pong = client->Exec("PING");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(pong.value().info, "pong");

  auto mine = client->Exec("MINE sales SUPPORT 30%");
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(mine.value().ok) << mine.value().info;
  EXPECT_NE(mine.value().info.find("transactions=10"), std::string::npos);
  EXPECT_FALSE(mine.value().payload.empty());

  // The session remembers its last result; RULES works off it.
  auto rules = client->Exec("RULES 70");
  ASSERT_TRUE(rules.ok());
  ASSERT_TRUE(rules.value().ok) << rules.value().info;
  EXPECT_NE(rules.value().payload.find(
                "antecedent,consequent,confidence,support,lift"),
            std::string::npos);

  auto quit = client->Exec("QUIT");
  ASSERT_TRUE(quit.ok());
  EXPECT_TRUE(quit.value().ok);
  EXPECT_EQ(quit.value().info, "bye");
}

TEST(MiningServerTest, MineMatchesDirectMiner) {
  ServerFixture fixture;
  auto client = fixture.Connect();
  auto mine = client->Exec("MINE sales SUPPORT 3");
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(mine.value().ok) << mine.value().info;

  Database oracle_db;
  MiningOptions options;
  options.min_support_count = 3;
  auto oracle = SetmMiner(&oracle_db).Mine(TinyTxns(), options);
  ASSERT_TRUE(oracle.ok());
  FrequentItemsets itemsets = std::move(oracle.value().itemsets);
  itemsets.Normalize();
  EXPECT_EQ(mine.value().payload, RenderItemsets(itemsets));
}

TEST(MiningServerTest, ParseErrorKeepsConnectionAlive) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  auto bad = client->Exec("FROBNICATE the database");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().ok);
  EXPECT_EQ(bad.value().code, "InvalidArgument");

  auto missing = client->Exec("MINE nosuch SUPPORT 2%");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().ok);
  EXPECT_EQ(missing.value().code, "NotFound");

  auto rules = client->Exec("RULES 50");  // no MINE ran on this connection
  ASSERT_TRUE(rules.ok());
  EXPECT_FALSE(rules.value().ok);
  EXPECT_EQ(rules.value().code, "NotFound");

  auto pong = client->Exec("PING");  // all of the above were protocol errors
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(fixture.server->Stats().parse_errors, 1u);
}

TEST(MiningServerTest, OversizedLineRejectedNotDisconnected) {
  ServerOptions options;
  options.max_line_bytes = 64;
  ServerFixture fixture(options);
  auto client = fixture.Connect();

  ASSERT_TRUE(client->SendLine(std::string(500, 'y')).ok());
  auto err = client->ReadResponse();
  ASSERT_TRUE(err.ok());
  EXPECT_FALSE(err.value().ok);
  EXPECT_EQ(err.value().code, "ResourceExhausted");

  auto pong = client->Exec("PING");  // framing resynchronized
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(fixture.server->Stats().oversized_lines, 1u);
}

TEST(MiningServerTest, ConnectionLimitRejectsWithError) {
  ServerOptions options;
  options.max_connections = 1;
  ServerFixture fixture(options);
  auto first = fixture.Connect();
  ASSERT_TRUE(first->Exec("PING").ok());

  auto second = fixture.Connect();  // accepted then refused at admission
  auto err = second->ReadResponse();
  ASSERT_TRUE(err.ok()) << err.status().ToString();
  EXPECT_FALSE(err.value().ok);
  EXPECT_EQ(err.value().code, "ResourceExhausted");
  EXPECT_TRUE(fixture.AwaitStats(
      [](const ServerStats& s) { return s.rejected_connections == 1; }));

  // The slot frees on disconnect: QUIT the first, the next connect serves.
  ASSERT_TRUE(first->Exec("QUIT").ok());
  first.reset();
  EXPECT_TRUE(fixture.AwaitStats(
      [](const ServerStats& s) { return s.connections_active == 0; }));
  auto third = fixture.Connect();
  auto pong = third->Exec("PING");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
}

TEST(MiningServerTest, SecondRequestWhileBusyIsRejected) {
  IterationGate gate;
  ServerOptions options;
  options.hooks.on_iteration = [&gate](const IterationStats& stats) {
    gate.Hook(stats);
  };
  ServerFixture fixture(options);
  auto client = fixture.Connect();

  ASSERT_TRUE(client->SendLine("MINE sales SUPPORT 30%").ok());
  ASSERT_TRUE(gate.AwaitEntered());  // the job is parked mid-iteration

  // Job verbs are rejected while one is in flight...
  ASSERT_TRUE(client->SendLine("MINE sales SUPPORT 40%").ok());
  auto busy = client->ReadResponse();
  ASSERT_TRUE(busy.ok());
  EXPECT_FALSE(busy.value().ok);
  EXPECT_EQ(busy.value().code, "ResourceExhausted");

  // ...but PING and STATS are always served from the loop thread.
  ASSERT_TRUE(client->SendLine("PING").ok());
  auto pong = client->ReadResponse();
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(pong.value().info, "pong");

  gate.Open();
  auto mine = client->ReadResponse();  // the parked job's answer arrives
  ASSERT_TRUE(mine.ok());
  EXPECT_TRUE(mine.value().ok) << mine.value().info;
  EXPECT_EQ(fixture.server->Stats().rejected_busy, 1u);
}

TEST(MiningServerTest, DisconnectMidMineCancelsTheJob) {
  IterationGate gate;
  ServerOptions options;
  options.hooks.on_iteration = [&gate](const IterationStats& stats) {
    gate.Hook(stats);
  };
  ServerFixture fixture(options);

  auto doomed = fixture.Connect();
  ASSERT_TRUE(doomed->SendLine("MINE sales SUPPORT 30%").ok());
  ASSERT_TRUE(gate.AwaitEntered());

  doomed.reset();  // hard close: no QUIT, the job is still parked

  // The loop notices the disconnect and flips the job's cancel flag...
  EXPECT_TRUE(fixture.AwaitStats(
      [](const ServerStats& s) { return s.disconnects == 1; }));

  // ...and once the job reaches its next iteration, it stops as cancelled.
  gate.Open();
  EXPECT_TRUE(fixture.AwaitStats(
      [](const ServerStats& s) { return s.cancelled_jobs == 1; }));

  // The server stays healthy for the next client.
  auto client = fixture.Connect();
  auto mine = client->Exec("MINE sales SUPPORT 30%");
  ASSERT_TRUE(mine.ok());
  EXPECT_TRUE(mine.value().ok) << mine.value().info;
}

TEST(MiningServerTest, AppendStreamsRowsAndRemines) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  ASSERT_TRUE(client->SendLine("APPEND sales SUPPORT 3").ok());
  ASSERT_TRUE(client->SendLine("101 3 4 5").ok());
  ASSERT_TRUE(client->SendLine("102 3 4 5").ok());
  ASSERT_TRUE(client->SendLine(".").ok());
  auto appended = client->ReadResponse();
  ASSERT_TRUE(appended.ok());
  ASSERT_TRUE(appended.value().ok) << appended.value().info;
  EXPECT_NE(appended.value().info.find("appended=2"), std::string::npos);
  EXPECT_NE(appended.value().info.find("transactions=12"), std::string::npos);

  // {3 4 5} now has support 5 of 12; the refreshed answer must agree with a
  // direct mine over the grown database.
  TransactionDb grown = TinyTxns();
  grown.push_back({101, {3, 4, 5}});
  grown.push_back({102, {3, 4, 5}});
  Database oracle_db;
  MiningOptions mine_options;
  mine_options.min_support_count = 3;
  auto oracle = SetmMiner(&oracle_db).Mine(grown, mine_options);
  ASSERT_TRUE(oracle.ok());
  FrequentItemsets itemsets = std::move(oracle.value().itemsets);
  itemsets.Normalize();
  EXPECT_EQ(appended.value().payload, RenderItemsets(itemsets));
}

TEST(MiningServerTest, AppendBadRowDrainsBatchAndReportsOnce) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  ASSERT_TRUE(client->SendLine("APPEND sales SUPPORT 3").ok());
  ASSERT_TRUE(client->SendLine("101 3 4 5").ok());
  ASSERT_TRUE(client->SendLine("not a row").ok());
  ASSERT_TRUE(client->SendLine("102 3 4 5").ok());  // still drained quietly
  ASSERT_TRUE(client->SendLine(".").ok());
  auto err = client->ReadResponse();
  ASSERT_TRUE(err.ok());
  EXPECT_FALSE(err.value().ok);  // one ERR for the whole batch, at the "."
  EXPECT_EQ(err.value().code, "InvalidArgument");

  auto pong = client->Exec("PING");  // session is back in command state
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
}

// max_append_rows caps APPEND rows and MERGE keys alike: the line past the
// cap is refused, the rest of the payload is drained, and the one ERR comes
// after the ".". A capped MERGE ends the connection's shard run.
TEST(MiningServerTest, BatchCapRefusesAppendRowsAndMergeKeysOnce) {
  ServerOptions options;
  options.max_append_rows = 2;
  ServerFixture fixture(options);
  auto client = fixture.Connect();
  const auto expect_pong = [&] {
    auto pong = client->Exec("PING");
    ASSERT_TRUE(pong.ok());
    EXPECT_TRUE(pong.value().ok);
    EXPECT_EQ(pong.value().info, "pong");
  };

  auto append = client->Exec(
      "APPEND sales SUPPORT 3\n101 3 4 5\n102 3 4\n103 4 5\n104 5\n.");
  ASSERT_TRUE(append.ok());
  EXPECT_FALSE(append.value().ok);
  EXPECT_EQ(append.value().code, "ResourceExhausted");
  EXPECT_EQ(append.value().info, "APPEND batch exceeds 2 rows");
  expect_pong();

  auto lcount = client->Exec("LCOUNT sales K 1");
  ASSERT_TRUE(lcount.ok());
  ASSERT_TRUE(lcount.value().ok) << lcount.value().info;
  auto merge = client->Exec("MERGE K 1\n0 0\n0 1\n0 2\n0 3\n.");
  ASSERT_TRUE(merge.ok());
  EXPECT_FALSE(merge.value().ok);
  EXPECT_EQ(merge.value().code, "ResourceExhausted");
  EXPECT_EQ(merge.value().info, "MERGE batch exceeds 2 keys");
  expect_pong();
  auto after = client->Exec("MERGE K 2\n0 1\n.");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().ok);
  EXPECT_EQ(after.value().code, "NotFound") << after.value().info;

  // A batch at the cap is served.
  auto at_cap = client->Exec("APPEND sales SUPPORT 3\n101 3 4 5\n102 3 4\n.");
  ASSERT_TRUE(at_cap.ok());
  EXPECT_TRUE(at_cap.value().ok) << at_cap.value().info;
  EXPECT_EQ(at_cap.value().info.rfind("appended=2 ", 0), 0u)
      << at_cap.value().info;
  expect_pong();
}

TEST(MiningServerTest, StatsFormatsRender) {
  ServerFixture fixture;
  auto client = fixture.Connect();
  auto text = client->Exec("STATS");
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(text.value().ok);
  auto json = client->Exec("STATS json");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json.value().payload.find("\"metrics\""), std::string::npos);
  auto prom = client->Exec("STATS prom");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom.value().payload.find("# TYPE setm_srv_requests_total"),
            std::string::npos);
}

TEST(MiningServerTest, GracefulStopWithIdleConnection) {
  auto fixture = std::make_unique<ServerFixture>();
  auto client = fixture->Connect();
  ASSERT_TRUE(client->Exec("PING").ok());
  fixture.reset();  // Stop() inside must return cleanly with a client open
}

TEST(MiningServerTest, ShutdownCancelsParkedJob) {
  IterationGate gate;
  ServerOptions options;
  options.hooks.on_iteration = [&gate](const IterationStats& stats) {
    gate.Hook(stats);
  };
  options.shutdown_grace_ms = 10000;
  auto fixture = std::make_unique<ServerFixture>(options);
  auto client = fixture->Connect();
  ASSERT_TRUE(client->SendLine("MINE sales SUPPORT 30%").ok());
  ASSERT_TRUE(gate.AwaitEntered());

  std::thread stopper([&fixture] { fixture.reset(); });
  gate.Open();  // shutdown cancels the job; the drain completes
  stopper.join();
}

// ------------------------------------------------------- shard sessions

TEST(MiningServerTest, ShardSessionCountsAndFilters) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  // Iteration 1's count: the full local item counts of TinyTxns, sorted,
  // min_count = 1 (support is the coordinator's concern, not the shard's).
  auto begin = client->Exec("LCOUNT sales K 1");
  ASSERT_TRUE(begin.ok());
  ASSERT_TRUE(begin.value().ok) << begin.value().info;
  EXPECT_NE(begin.value().info.find("lcount k=1 transactions=10"),
            std::string::npos)
      << begin.value().info;
  // Each item extends the empty itemset, id 0.
  EXPECT_EQ(begin.value().payload,
            "0 0 6\n0 1 4\n0 2 4\n0 3 6\n0 4 4\n0 5 3\n0 6 2\n0 7 1\n");

  // Pass 1 keeps R_1 (no FILTER) and answers the local pair counts of R'_2,
  // keyed by the first item's C_1 id: here C_1 is items 0..6, whose ids
  // are the items themselves.
  auto pairs =
      client->Exec("MERGE K 1\n0 0\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n.");
  ASSERT_TRUE(pairs.ok());
  ASSERT_TRUE(pairs.value().ok) << pairs.value().info;
  EXPECT_NE(pairs.value().info.find("merge k=1 rows="), std::string::npos);
  EXPECT_NE(pairs.value().info.find(" rprime="), std::string::npos);
  // {0,1} occurs in transactions 10, 20 and 30.
  EXPECT_NE(pairs.value().payload.find("0 1 3\n"), std::string::npos)
      << pairs.value().payload;

  // Pass 2: the whole global C_2, {0,1} and {3,4}, rides in one request,
  // and the reply carries the triples of R'_3 counted off the filtered R_2,
  // keyed by C_2 id: 0 is {0,1} and 1 is {3,4}.
  auto triples = client->Exec("MERGE K 2\n0 1\n3 4\n.");
  ASSERT_TRUE(triples.ok());
  ASSERT_TRUE(triples.value().ok) << triples.value().info;
  EXPECT_NE(triples.value().info.find("merge k=2 rows="), std::string::npos);
  EXPECT_NE(triples.value().info.find(" rprime="), std::string::npos);
  // R_2 = {0,1} in transactions 10, 20, 30 and {3,4} in 80, 90, 99.
  EXPECT_EQ(triples.value().payload, "0 2 2\n0 3 1\n1 5 3\n");
}

// The server's MERGE handler is a LocalShardBackend, which refuses a
// malformed C_k naming the shard, and a key line that is not two
// non-negative int32 fields is refused as it is read. Either ends the
// connection's run.
TEST(MiningServerTest, MalformedCkOverMergeIsRefused) {
  ServerFixture fixture;
  auto client = fixture.Connect();
  const auto begin = [&](const std::string& c1) {
    auto lcount = client->Exec("LCOUNT sales K 1");
    ASSERT_TRUE(lcount.ok());
    ASSERT_TRUE(lcount.value().ok) << lcount.value().info;
    if (c1.empty()) return;
    auto pass1 = client->Exec(c1);
    ASSERT_TRUE(pass1.ok());
    ASSERT_TRUE(pass1.value().ok) << pass1.value().info;
  };
  const auto expect_refused = [&](const std::string& request,
                                  const std::string& what,
                                  bool names_shard) {
    SCOPED_TRACE(request);
    auto reply = client->Exec(request);
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply.value().ok);
    EXPECT_EQ(reply.value().code, "InvalidArgument");
    EXPECT_EQ(reply.value().info.find("shard srv:sales") != std::string::npos,
              names_shard)
        << reply.value().info;
    EXPECT_NE(reply.value().info.find(what), std::string::npos)
        << reply.value().info;
    auto after = client->Exec("MERGE K 1\n0 0\n.");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().code, "NotFound");
  };
  // C_1: items 0..4, ids 0..4.
  const std::string c1 = "MERGE K 1\n0 0\n0 1\n0 2\n0 3\n0 4\n.";
  const struct {
    const char* c1;  // pass 1's MERGE first, or none
    const char* request;
    const char* what;
    bool names_shard;
  } cases[] = {
      {"", "MERGE K 1\n0 1\n0 0\n.", "not strictly ascending", true},
      {"", "MERGE K 1\n0 0\n0 0\n.", "not strictly ascending", true},
      {"", "MERGE K 1\n1 0\n.", "outside C_0's ids [0, 1)", true},
      {"", "MERGE K 1\n0\n.", "<parent id> <item>", false},
      {"", "MERGE K 1\n0 0 0\n.", "<parent id> <item>", false},
      {"", "MERGE K 1\n0 -1\n.", "not in [0, 2147483647]", false},
      {"x", "MERGE K 2\n5 6\n.", "outside C_1's ids [0, 5)", true},
      {"x", "MERGE K 2\n0 2\n0 1\n.", "not strictly ascending", true},
      {"x", "MERGE K 2\n0 1\n0 1\n.", "not strictly ascending", true},
      {"x", "MERGE K 2\n0 1\n3 6\n.", "item outside C_1", true},
      {"x", "MERGE K 2\n1 1\n.", "not above its parent's last item", true},
      {"x", "MERGE K 2\n1 0\n.", "not above its parent's last item", true},
      {"x", "MERGE K 2\n0\n.", "<parent id> <item>", false},
      {"x", "MERGE K 2\n0 1 2\n.", "<parent id> <item>", false},
  };
  for (const auto& c : cases) {
    begin(std::string(c.c1).empty() ? "" : c1);
    expect_refused(c.request, c.what, c.names_shard);
  }
}

// RELEASE ends the connection's shard run at once: its R_1 leaves the
// scratch pages the process holds, a MERGE after it finds no run, and a
// second RELEASE has none to end.
TEST(MiningServerTest, ReleaseEndsTheShardRun) {
  ServerFixture fixture;
  auto client = fixture.Connect();
  obs::Gauge* scratch =
      obs::MetricsRegistry::Global()->GetGauge("setm_scratch_pages", "");
  const int64_t before = scratch->Value();

  auto begin = client->Exec("LCOUNT sales K 1");
  ASSERT_TRUE(begin.ok());
  ASSERT_TRUE(begin.value().ok) << begin.value().info;
  EXPECT_EQ(scratch->Value(), before + 1);  // R_1 of TinyTxns: one page

  auto release = client->Exec("RELEASE");
  ASSERT_TRUE(release.ok());
  ASSERT_TRUE(release.value().ok) << release.value().info;
  EXPECT_EQ(release.value().info, "release run=1");
  EXPECT_EQ(scratch->Value(), before);

  auto merge = client->Exec("MERGE K 1\n0\n.");
  ASSERT_TRUE(merge.ok());
  EXPECT_FALSE(merge.value().ok);
  EXPECT_EQ(merge.value().code, "NotFound");

  auto again = client->Exec("RELEASE");
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.value().ok) << again.value().info;
  EXPECT_EQ(again.value().info, "release run=0");
}

TEST(MiningServerTest, ShardContinuationWithoutRunIsNotFound) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  // The itemsets and "." are drained: one ERR, after the ".", for the
  // whole request.
  auto response = client->Exec("MERGE K 2\n1 2\n3 4\n.");
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().code, "NotFound");
  EXPECT_NE(response.value().info.find("no shard run"), std::string::npos)
      << response.value().info;
  auto pong = client->Exec("PING");  // the next reply is the pong
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong.value().ok);
  EXPECT_EQ(pong.value().info, "pong");
}

TEST(MiningServerTest, RefusedAppendOrMergeIsAnsweredOnceAfterItsPayload) {
  {
    ServerFixture fixture;
    auto client = fixture.Connect();
    auto unknown = client->Exec("APPEND sales SUPPORT 3 ALGO nosuch\n"
                                "101 3 4 5\n102 3 4\n.");
    ASSERT_TRUE(unknown.ok());
    EXPECT_FALSE(unknown.value().ok);
    EXPECT_EQ(unknown.value().code, "NotFound") << unknown.value().info;
    auto pong = client->Exec("PING");
    ASSERT_TRUE(pong.ok());
    EXPECT_TRUE(pong.value().ok);
    EXPECT_EQ(pong.value().info, "pong");
  }

  // Busy: a MINE is parked mid-iteration while an APPEND and a MERGE come.
  IterationGate gate;
  ServerOptions options;
  options.hooks.on_iteration = [&gate](const IterationStats& stats) {
    gate.Hook(stats);
  };
  ServerFixture fixture(options);
  auto client = fixture.Connect();
  ASSERT_TRUE(client->SendLine("MINE sales SUPPORT 30%").ok());
  ASSERT_TRUE(gate.AwaitEntered());
  for (const char* request :
       {"APPEND sales SUPPORT 3\n101 3 4 5\n102 3 4\n.",
        "MERGE K 2\n0 1\n3 4\n."}) {
    SCOPED_TRACE(request);
    auto busy = client->Exec(request);
    ASSERT_TRUE(busy.ok());
    EXPECT_FALSE(busy.value().ok);
    EXPECT_EQ(busy.value().code, "ResourceExhausted");
    auto pong = client->Exec("PING");
    ASSERT_TRUE(pong.ok());
    EXPECT_TRUE(pong.value().ok);
    EXPECT_EQ(pong.value().info, "pong");
  }
  gate.Open();
  auto mine = client->ReadResponse();  // the parked job's answer
  ASSERT_TRUE(mine.ok());
  EXPECT_TRUE(mine.value().ok) << mine.value().info;
  EXPECT_EQ(fixture.server->Stats().rejected_busy, 2u);
}

TEST(MiningServerTest, UnknownTableNamesAvailableTables) {
  ServerFixture fixture;
  auto client = fixture.Connect();

  // MINE and LCOUNT share the catalog's operator-friendly lookup: the
  // error names the tables that DO exist.
  for (const char* line :
       {"MINE nosuch SUPPORT 2%", "LCOUNT nosuch K 1"}) {
    auto response = client->Exec(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_FALSE(response.value().ok) << line;
    EXPECT_EQ(response.value().code, "NotFound") << line;
    EXPECT_NE(response.value().info.find("available: sales"),
              std::string::npos)
        << response.value().info;
  }
}

}  // namespace
}  // namespace setm::net
