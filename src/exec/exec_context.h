#ifndef SETM_EXEC_EXEC_CONTEXT_H_
#define SETM_EXEC_EXEC_CONTEXT_H_

#include <cstddef>

#include "relational/database.h"
#include "storage/buffer_pool.h"

namespace setm {

/// Resources physical operators draw on: the temp-space buffer pool for
/// sort runs and the memory budget at which the external sort spills.
/// Operators run on the calling thread; none of them uses a worker pool.
struct ExecContext {
  BufferPool* temp_pool = nullptr;
  size_t sort_memory_bytes = 1 << 20;

  /// Context bound to a database's temp pool and configured sort budget.
  static ExecContext From(Database* db) {
    ExecContext ctx;
    ctx.temp_pool = db->temp_pool();
    ctx.sort_memory_bytes = db->options().sort_memory_bytes;
    return ctx;
  }
};

}  // namespace setm

#endif  // SETM_EXEC_EXEC_CONTEXT_H_
