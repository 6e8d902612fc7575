#include "storage/io_stats.h"

#include <cstdio>

namespace setm {

std::string IoStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "reads=%llu (seq=%llu rand=%llu) writes=%llu (seq=%llu "
                "rand=%llu) alloc=%llu reused=%llu model_time=%.1fs",
                static_cast<unsigned long long>(page_reads),
                static_cast<unsigned long long>(sequential_reads),
                static_cast<unsigned long long>(random_reads),
                static_cast<unsigned long long>(page_writes),
                static_cast<unsigned long long>(sequential_writes),
                static_cast<unsigned long long>(random_writes),
                static_cast<unsigned long long>(pages_allocated),
                static_cast<unsigned long long>(pages_reused),
                ModelSeconds());
  return buf;
}

IoStats Diff(const IoStats& after, const IoStats& before) {
  IoStats d;
  d.page_reads = after.page_reads - before.page_reads;
  d.page_writes = after.page_writes - before.page_writes;
  d.sequential_reads = after.sequential_reads - before.sequential_reads;
  d.random_reads = after.random_reads - before.random_reads;
  d.sequential_writes = after.sequential_writes - before.sequential_writes;
  d.random_writes = after.random_writes - before.random_writes;
  d.pages_allocated = after.pages_allocated - before.pages_allocated;
  d.pages_reused = after.pages_reused - before.pages_reused;
  return d;
}

}  // namespace setm
