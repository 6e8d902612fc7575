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
/// terminated, one request per line. Keywords are case-insensitive; table
/// names are not. APPEND and MERGE, the payload verbs, follow their request
/// line with data lines up to a "." line, and share one rule: the response
/// comes after the "."; a refused request, a malformed line or a line past
/// the one batch cap (ServerOptions::max_append_rows, rows or keys) drains
/// the rest of the payload and is answered with one ERR after the ".".
///
///   MINE <table> SUPPORT <spec> [ALGO <name>] [THREADS <n>] [MAXK <k>]
///   APPEND <table> SUPPORT <spec> [ALGO <name>] [THREADS <n>] [MAXK <k>]
///                             then one transaction per line ("<trans_id>
///                             <item> [<item> ...]"), terminated by ".";
///                             the response is the refreshed mining answer
///   RULES <conf>[%] [MODE single|subsets]
///   EXPLAIN <table> SUPPORT <spec> [ALGO <name>] [THREADS <n>] [MAXK <k>]
///   LCOUNT <table> K 1 [METHOD sortmerge|hash] [FILTER] [MAXK <k>]
///                             begins a shard run over <table>: builds the
///                             local R_1 and answers the full local item
///                             counts ("0 <item> <count>" lines: each item
///                             extends the empty itemset, id 0), iteration
///                             1 of the distributed count. METHOD sets the
///                             run's count budget: sortmerge counts within
///                             the server's sort budget, spilling sorted
///                             runs; hash counts unbounded. MAXK is the
///                             run's longest pattern: no pass counts a
///                             longer level
///   MERGE K <k>               then the key of one surviving global
///                             candidate per line ("<parent id> <item>":
///                             C_{k-1}'s itemset of that id, 0 the empty
///                             one for k == 1, extended by the item),
///                             terminated by "."; the one pass of
///                             iteration k: filters the local join down to
///                             R_k (for k == 1, R_1 itself, rewritten only
///                             under FILTER) and answers the local counts
///                             of R'_{k+1} ("<C_k id> <item> <count>"
///                             lines) counted in the same pass. A C_k id
///                             is the key's position in the MERGE. The
///                             keys must be strictly ascending, each
///                             parent an id of the run's C_{k-1} and each
///                             item in C_1 and above the parent's last
///                             item; otherwise the answer is ERR
///                             InvalidArgument and the run ends. Count
///                             lines come in strictly ascending key order
///   RELEASE                   ends the connection's shard run and frees
///                             its R_1 and R_k at once, instead of at the
///                             next LCOUNT or the disconnect; answers
///                             "release run=1", or "release run=0" when
///                             the connection holds no run
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
///   ERR <Code> <message>\n                 single line, connection stays up;
///                                          a payload verb gets its one ERR
///                                          after its ".", even when
///                                          refused at its first line
enum class Verb {
  kMine,
  kAppend,
  kRules,
  kExplain,
  kLcount,
  kMerge,
  kRelease,
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
  size_t max_k = 0;              ///< MINE/EXPLAIN/LCOUNT MAXK (0 = unbounded)
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

/// Parses one MERGE data line, "<parent id> <item>": the key of one
/// surviving global candidate, both in [0, INT32_MAX]. With `count`, parses
/// an LCOUNT/MERGE reply line, "<parent id> <item> <count>", whose count is
/// in [1, INT64_MAX]. Whether the keys ascend and name candidates of the
/// run is the receiver's check (IndexCandidates).
Result<CandidateKey> ParseKeyLine(const std::string& line,
                                  int64_t* count = nullptr);

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
