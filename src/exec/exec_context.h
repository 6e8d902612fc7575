#ifndef SETM_EXEC_EXEC_CONTEXT_H_
#define SETM_EXEC_EXEC_CONTEXT_H_

#include <cstddef>
#include <functional>

#include "relational/database.h"
#include "storage/buffer_pool.h"

namespace setm {

/// Resources physical operators draw on: the buffer pool the external sort
/// and the C_k count spill their runs into, the tagger of those run pages,
/// and the memory budget at which the sort spills. Operators run on the calling thread; none of
/// them uses a worker pool.
struct ExecContext {
  BufferPool* pool = nullptr;
  /// Fires for each page a spilled run allocates (null: none).
  std::function<void(PageId)> unlogged_page_tagger;
  size_t sort_memory_bytes = 1 << 20;

  /// Context bound to a database's one pool and configured sort budget.
  /// Spilled runs are scratch pages next to SETM's R_k, tagged unlogged the
  /// same way (Database::UnloggedPageTagger), so they never reach the
  /// write-ahead log, and released to the pool once merged.
  static ExecContext From(Database* db) {
    ExecContext ctx;
    ctx.pool = db->pool();
    ctx.unlogged_page_tagger = db->UnloggedPageTagger();
    ctx.sort_memory_bytes = db->options().sort_memory_bytes;
    return ctx;
  }
};

}  // namespace setm

#endif  // SETM_EXEC_EXEC_CONTEXT_H_
