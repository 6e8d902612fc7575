#ifndef SETM_NET_PROTOCOL_H_
#define SETM_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/rules.h"
#include "core/types.h"

namespace setm::net {

/// The setm_served wire protocol: line-oriented text, LF- or CRLF-
/// terminated, one request per line (APPEND additionally streams data
/// lines). Keywords are case-insensitive; table names are not.
///
///   MINE <table> SUPPORT <spec> [ALGO <name>] [THREADS <n>] [MAXK <k>]
///   APPEND <table> SUPPORT <spec> [ALGO <name>] [THREADS <n>] [MAXK <k>]
///                             then one transaction per line ("<trans_id>
///                             <item> [<item> ...]"), terminated by ".";
///                             the response is the refreshed mining answer
///   RULES <conf>[%] [MODE single|subsets]
///   EXPLAIN <table> SUPPORT <spec> [ALGO <name>] [THREADS <n>] [MAXK <k>]
///   LCOUNT <table> K 1 [METHOD sortmerge|hash] [FILTER]
///                             begins a shard run over <table>: builds the
///                             local R_1 and answers the full local item
///                             counts ("<item> <count>" lines) — phase 1 of
///                             the distributed two-phase count. METHOD sets
///                             the run's count budget: sortmerge counts
///                             within the server's sort budget, spilling
///                             sorted runs; hash counts unbounded
///   LCOUNT K <k>              continues the connection's shard run (k >= 2):
///                             local R'_k join, answers candidate counts
///                             ("<item_1> ... <item_k> <count>" lines)
///   MERGE K <k>               then one surviving global itemset per line
///                             ("<item_1> ... <item_k>", ascending),
///                             terminated by "."; filters the local R'_k
///                             (or R_1, for k == 1 under FILTER) down to
///                             R_k — phase 2 of the distributed count
///   STATS [text|json|prom]
///   PING
///   QUIT
///
/// <spec> is either "<pct>%" (minimum support as a percentage of
/// transactions, e.g. "2%", "0.5%") or a bare integer (absolute minimum
/// support count). <conf> is a percentage; the % sign is optional.
///
/// Responses:
///   OK <info>\n<payload lines...>\n.\n     every success, payload may be
///                                          empty; a payload line starting
///                                          with '.' is sent dot-stuffed
///   ERR <Code> <message>\n                 single line, connection stays up
enum class Verb {
  kMine,
  kAppend,
  kRules,
  kExplain,
  kLcount,
  kMerge,
  kStats,
  kPing,
  kQuit,
};

/// Stable lower-case name of a verb ("mine", "append", ...), for metrics
/// and logs.
const char* VerbName(Verb verb);

/// One parsed request line.
struct Command {
  Verb verb = Verb::kPing;
  std::string table;             ///< MINE / APPEND / EXPLAIN
  double min_support = 0.0;      ///< MINE/EXPLAIN: fraction, when % spec
  int64_t min_support_count = 0; ///< MINE/EXPLAIN: absolute, when bare int
  std::string algo = "setm";     ///< MINE/EXPLAIN ALGO
  size_t threads = 0;            ///< MINE/EXPLAIN THREADS (0 = server default)
  size_t max_k = 0;              ///< MINE/EXPLAIN MAXK (0 = unbounded)
  double min_confidence = 0.0;   ///< RULES: fraction
  RuleMode rule_mode = RuleMode::kSingleConsequent;  ///< RULES MODE
  std::string stats_format = "text";                 ///< STATS
  size_t shard_k = 0;            ///< LCOUNT / MERGE: iteration number
  std::string shard_method = "sortmerge";  ///< LCOUNT METHOD
  bool shard_filter = false;     ///< LCOUNT FILTER (a filter_r1 run)
};

/// Parses one request line. InvalidArgument (with a message naming the
/// offending token) on anything malformed — the session answers with a
/// protocol ERR, never by disconnecting.
Result<Command> ParseCommand(const std::string& line);

/// Parses one APPEND data line: "<trans_id> <item> [<item> ...]". Items are
/// sorted and deduplicated; ids and items must be non-negative integers.
Result<Transaction> ParseAppendRow(const std::string& line);

/// Parses one MERGE data line: "<item_1> [<item_2> ...]" — one surviving
/// global itemset. Items must be non-negative integers in strictly
/// ascending order (the coordinator broadcasts canonical sorted itemsets;
/// anything else is a protocol violation, not data to be repaired).
Result<std::vector<ItemId>> ParseItemsetLine(const std::string& line);

/// Frames a success response: "OK <info>\n" + dot-stuffed payload + ".\n".
/// `payload` may be empty or multi-line (trailing newline optional).
std::string FrameOk(const std::string& info, const std::string& payload);

/// Frames an error response from a Status: "ERR <Code> <message>\n".
std::string FrameError(const Status& status);

/// Canonical rendering of a mining result's itemsets, one line per pattern:
/// "<item_1> <item_2> ... <item_k> <count>", sizes ascending, items
/// lexicographic within a size — deterministic for a Normalized result, so
/// two clients (or a client and the CLI) can diff answers byte for byte.
std::string RenderItemsets(const FrequentItemsets& itemsets);

/// Client-side helper: strips the dot-stuffing FrameOk applied.
std::string UnstuffPayloadLine(const std::string& line);

}  // namespace setm::net

#endif  // SETM_NET_PROTOCOL_H_
