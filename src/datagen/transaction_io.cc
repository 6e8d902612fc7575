#include "datagen/transaction_io.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace setm {

namespace {
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Parses one base-10 integer at `*p` and advances `*p` past it. Values
/// beyond int64 saturate (strtoll), so they fail every int32 range check.
bool ParseInt(const char** p, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(*p, &end, 10);
  if (end == *p) return false;
  *p = end;
  *out = v;
  return true;
}
}  // namespace

Status SaveTransactionsCsv(const std::string& path, const TransactionDb& db) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  if (std::fputs("trans_id,item\n", f.get()) < 0) {
    return Status::IOError("write failed on " + path);
  }
  for (const Transaction& t : db) {
    for (ItemId item : t.items) {
      if (std::fprintf(f.get(), "%d,%d\n", t.id, item) < 0) {
        return Status::IOError("write failed on " + path);
      }
    }
  }
  return Status::OK();
}

Result<TransactionDb> LoadTransactionsCsv(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::IOError("cannot open " + path + " for reading");
  std::map<TransactionId, std::vector<ItemId>> grouped;
  char line[256];
  size_t lineno = 0;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++lineno;
    // Skip a header line and blank lines.
    if (lineno == 1 && std::strchr(line, ',') != nullptr &&
        !std::isdigit(static_cast<unsigned char>(line[0]))) {
      continue;
    }
    if (line[0] == '\n' || line[0] == '\0') continue;
    const std::string where = path + ":" + std::to_string(lineno);
    const char* p = line;
    int64_t tid = 0, item = 0;
    if (!ParseInt(&p, &tid) || *p++ != ',' || !ParseInt(&p, &item)) {
      return Status::InvalidArgument(where + ": expected 'trans_id,item'");
    }
    if (tid < INT32_MIN || tid > INT32_MAX) {
      return Status::InvalidArgument(where + ": trans_id outside int32");
    }
    if (item < 0 || item > INT32_MAX) {
      return Status::InvalidArgument(where +
                                     ": item outside [0, 2147483647]");
    }
    grouped[static_cast<TransactionId>(tid)].push_back(
        static_cast<ItemId>(item));
  }
  TransactionDb db;
  db.reserve(grouped.size());
  for (auto& [tid, items] : grouped) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    db.push_back(Transaction{tid, std::move(items)});
  }
  return db;
}

}  // namespace setm
