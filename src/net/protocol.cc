#include "net/protocol.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "core/miner.h"

namespace setm::net {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

bool ValidTableName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

/// "<pct>%" -> fraction in min_support; bare integer -> min_support_count.
Status ParseSupportSpec(const std::string& spec, Command* out) {
  if (spec.empty()) return Status::InvalidArgument("empty SUPPORT spec");
  if (spec.back() == '%') {
    char* end = nullptr;
    double pct = std::strtod(spec.c_str(), &end);
    if (end != spec.c_str() + spec.size() - 1 || pct <= 0.0 || pct > 100.0) {
      return Status::InvalidArgument("SUPPORT percentage must be in (0,100]: " +
                                     spec);
    }
    out->min_support = pct / 100.0;
    out->min_support_count = 0;
    return Status::OK();
  }
  char* end = nullptr;
  long long count = std::strtoll(spec.c_str(), &end, 10);
  if (end != spec.c_str() + spec.size() || count < 1) {
    return Status::InvalidArgument(
        "SUPPORT must be \"<pct>%\" or a positive integer count: " + spec);
  }
  out->min_support_count = count;
  return Status::OK();
}

Status ParsePositive(const std::string& token, const char* what, size_t max,
                     size_t* out) {
  char* end = nullptr;
  long long v = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || v < 1 ||
      static_cast<size_t>(v) > max) {
    return Status::InvalidArgument(std::string(what) + " must be in [1," +
                                   std::to_string(max) + "]: " + token);
  }
  *out = static_cast<size_t>(v);
  return Status::OK();
}

/// Shared by MINE, EXPLAIN and APPEND: <table> SUPPORT <spec> [ALGO ..]
/// [THREADS ..] [MAXK ..].
Status ParseMineArgs(const std::vector<std::string>& tokens, Command* out) {
  if (tokens.size() < 4) {
    return Status::InvalidArgument(
        "usage: " + Upper(tokens[0]) +
        " <table> SUPPORT <spec> [ALGO <name>] [THREADS <n>] [MAXK <k>]");
  }
  out->table = tokens[1];
  if (!ValidTableName(out->table)) {
    return Status::InvalidArgument("invalid table name: " + tokens[1]);
  }
  if (Upper(tokens[2]) != "SUPPORT") {
    return Status::InvalidArgument("expected SUPPORT, got: " + tokens[2]);
  }
  SETM_RETURN_IF_ERROR(ParseSupportSpec(tokens[3], out));
  size_t i = 4;
  while (i < tokens.size()) {
    std::string key = Upper(tokens[i]);
    if (i + 1 >= tokens.size()) {
      return Status::InvalidArgument(key + " requires a value");
    }
    const std::string& value = tokens[i + 1];
    if (key == "ALGO") {
      out->algo = value;
    } else if (key == "THREADS") {
      SETM_RETURN_IF_ERROR(
          ParsePositive(value, "THREADS", kMaxThreads, &out->threads));
    } else if (key == "MAXK") {
      SETM_RETURN_IF_ERROR(ParsePositive(value, "MAXK", 64, &out->max_k));
    } else {
      return Status::InvalidArgument("unknown option: " + tokens[i]);
    }
    i += 2;
  }
  return Status::OK();
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kMine:
      return "mine";
    case Verb::kAppend:
      return "append";
    case Verb::kRules:
      return "rules";
    case Verb::kExplain:
      return "explain";
    case Verb::kLcount:
      return "lcount";
    case Verb::kMerge:
      return "merge";
    case Verb::kRelease:
      return "release";
    case Verb::kStats:
      return "stats";
    case Verb::kPing:
      return "ping";
    case Verb::kQuit:
      return "quit";
  }
  return "unknown";
}

Result<Command> ParseCommand(const std::string& line) {
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Status::InvalidArgument("empty command");
  std::string verb = Upper(tokens[0]);
  Command cmd;

  if (verb == "PING") {
    if (tokens.size() != 1) return Status::InvalidArgument("PING takes no arguments");
    cmd.verb = Verb::kPing;
    return cmd;
  }
  if (verb == "RELEASE") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("RELEASE takes no arguments");
    }
    cmd.verb = Verb::kRelease;
    return cmd;
  }
  if (verb == "QUIT") {
    if (tokens.size() != 1) return Status::InvalidArgument("QUIT takes no arguments");
    cmd.verb = Verb::kQuit;
    return cmd;
  }
  if (verb == "STATS") {
    if (tokens.size() > 2) {
      return Status::InvalidArgument("usage: STATS [text|json|prom]");
    }
    cmd.verb = Verb::kStats;
    if (tokens.size() == 2) {
      std::string format = tokens[1];
      std::transform(format.begin(), format.end(), format.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (format != "text" && format != "json" && format != "prom") {
        return Status::InvalidArgument("STATS format must be text, json or prom");
      }
      cmd.stats_format = format;
    }
    return cmd;
  }
  if (verb == "MINE" || verb == "EXPLAIN" || verb == "APPEND") {
    cmd.verb = verb == "MINE"      ? Verb::kMine
               : verb == "EXPLAIN" ? Verb::kExplain
                                   : Verb::kAppend;
    SETM_RETURN_IF_ERROR(ParseMineArgs(tokens, &cmd));
    return cmd;
  }
  if (verb == "LCOUNT") {
    // LCOUNT <table> K 1 [METHOD sortmerge|hash] [FILTER] [MAXK <k>].
    if (tokens.size() < 4) {
      return Status::InvalidArgument(
          "usage: LCOUNT <table> K 1 [METHOD sortmerge|hash] [FILTER] "
          "[MAXK <k>]");
    }
    cmd.verb = Verb::kLcount;
    cmd.table = tokens[1];
    if (!ValidTableName(cmd.table)) {
      return Status::InvalidArgument("invalid table name: " + tokens[1]);
    }
    if (Upper(tokens[2]) != "K" || tokens[3] != "1") {
      return Status::InvalidArgument(
          "a shard run begins at K 1; later iterations are MERGE K <k>: " +
          line);
    }
    cmd.shard_k = 1;
    size_t i = 4;
    while (i < tokens.size()) {
      std::string key = Upper(tokens[i]);
      if (key == "FILTER") {
        cmd.shard_filter = true;
        i += 1;
        continue;
      }
      if (key != "METHOD" && key != "MAXK") {
        return Status::InvalidArgument("unknown option: " + tokens[i]);
      }
      if (i + 1 >= tokens.size()) {
        return Status::InvalidArgument(key + " requires a value");
      }
      if (key == "MAXK") {
        SETM_RETURN_IF_ERROR(
            ParsePositive(tokens[i + 1], "MAXK", 64, &cmd.max_k));
      } else {
        std::string method = tokens[i + 1];
        std::transform(method.begin(), method.end(), method.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (method != "sortmerge" && method != "hash") {
          return Status::InvalidArgument(
              "METHOD must be sortmerge or hash: " + tokens[i + 1]);
        }
        cmd.shard_method = method;
      }
      i += 2;
    }
    return cmd;
  }
  if (verb == "MERGE") {
    if (tokens.size() != 3 || Upper(tokens[1]) != "K") {
      return Status::InvalidArgument(
          "usage: MERGE K <k> (then one \"<parent id> <item>\" key per "
          "line, terminated by .)");
    }
    cmd.verb = Verb::kMerge;
    SETM_RETURN_IF_ERROR(ParsePositive(tokens[2], "K", 64, &cmd.shard_k));
    return cmd;
  }
  if (verb == "RULES") {
    if (tokens.size() < 2 || tokens.size() > 4) {
      return Status::InvalidArgument(
          "usage: RULES <conf>[%] [MODE single|subsets]");
    }
    cmd.verb = Verb::kRules;
    std::string conf = tokens[1];
    if (!conf.empty() && conf.back() == '%') conf.pop_back();
    char* end = nullptr;
    double pct = std::strtod(conf.c_str(), &end);
    if (conf.empty() || end != conf.c_str() + conf.size() || pct <= 0.0 ||
        pct > 100.0) {
      return Status::InvalidArgument(
          "RULES confidence must be a percentage in (0,100]: " + tokens[1]);
    }
    cmd.min_confidence = pct / 100.0;
    if (tokens.size() >= 3) {
      if (Upper(tokens[2]) != "MODE" || tokens.size() != 4) {
        return Status::InvalidArgument(
            "usage: RULES <conf>[%] [MODE single|subsets]");
      }
      std::string mode = Upper(tokens[3]);
      if (mode == "SINGLE") {
        cmd.rule_mode = RuleMode::kSingleConsequent;
      } else if (mode == "SUBSETS") {
        cmd.rule_mode = RuleMode::kAnySubset;
      } else {
        return Status::InvalidArgument("MODE must be single or subsets: " +
                                       tokens[3]);
      }
    }
    return cmd;
  }
  return Status::InvalidArgument("unknown command: " + tokens[0]);
}

Result<Transaction> ParseAppendRow(const std::string& line) {
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.size() < 2) {
    return Status::InvalidArgument(
        "append row must be \"<trans_id> <item> [<item> ...]\": " + line);
  }
  Transaction t;
  for (size_t i = 0; i < tokens.size(); ++i) {
    char* end = nullptr;
    long long v = std::strtoll(tokens[i].c_str(), &end, 10);
    if (end != tokens[i].c_str() + tokens[i].size() || v < 0 || v > INT32_MAX) {
      return Status::InvalidArgument("append row token not a non-negative "
                                     "32-bit integer: " + tokens[i]);
    }
    if (i == 0) {
      t.id = static_cast<TransactionId>(v);
    } else {
      t.items.push_back(static_cast<ItemId>(v));
    }
  }
  std::sort(t.items.begin(), t.items.end());
  t.items.erase(std::unique(t.items.begin(), t.items.end()), t.items.end());
  return t;
}

Result<CandidateKey> ParseKeyLine(const std::string& line, int64_t* count) {
  const std::vector<std::string> tokens = Tokenize(line);
  const size_t fields = count == nullptr ? 2 : 3;
  if (tokens.size() != fields) {
    return Status::InvalidArgument(
        std::string("want \"<parent id> <item>") +
        (count == nullptr ? "\"" : " <count>\"") + ", not " +
        std::to_string(tokens.size()) + " fields: " + line);
  }
  long long values[3];
  for (size_t i = 0; i < fields; ++i) {
    const long long low = i < 2 ? 0 : 1;
    const long long high = i < 2 ? INT32_MAX : INT64_MAX;
    char* end = nullptr;
    errno = 0;
    values[i] = std::strtoll(tokens[i].c_str(), &end, 10);
    if (end != tokens[i].c_str() + tokens[i].size() || errno == ERANGE ||
        values[i] < low || values[i] > high) {
      return Status::InvalidArgument(
          std::string(i < 2 ? "id or item" : "count") + " not in [" +
          std::to_string(low) + ", " + std::to_string(high) + "]: " + line);
    }
  }
  if (count != nullptr) *count = values[2];
  return CandidateKey{static_cast<int32_t>(values[0]),
                      static_cast<ItemId>(values[1])};
}

std::string FrameOk(const std::string& info, const std::string& payload) {
  std::string out = "OK ";
  out += info;
  out += '\n';
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find('\n', start);
    size_t len = (end == std::string::npos ? payload.size() : end) - start;
    if (len > 0 && payload[start] == '.') out += '.';  // dot-stuffing
    out.append(payload, start, len);
    out += '\n';
    if (end == std::string::npos) break;
    start = end + 1;
  }
  out += ".\n";
  return out;
}

std::string FrameError(const Status& status) {
  std::string out = "ERR ";
  out += StatusCodeName(status.code());
  out += ' ';
  // Protocol errors are one line by contract; flatten any embedded breaks.
  std::string message = status.message();
  std::replace(message.begin(), message.end(), '\n', ' ');
  out += message;
  out += '\n';
  return out;
}

std::string RenderItemsets(const FrequentItemsets& itemsets) {
  std::string out;
  for (size_t k = 1; k <= itemsets.MaxSize(); ++k) {
    for (const PatternCount& p : itemsets.OfSize(k)) {
      for (ItemId item : p.items) {
        out += std::to_string(item);
        out += ' ';
      }
      out += std::to_string(p.count);
      out += '\n';
    }
  }
  return out;
}

std::string UnstuffPayloadLine(const std::string& line) {
  if (line.size() >= 2 && line[0] == '.' && line[1] == '.') {
    return line.substr(1);
  }
  return line;
}

}  // namespace setm::net
