#ifndef SETM_PERFBENCH_WORKLOADS_H_
#define SETM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  /// Directory for the run's database files; emptied by the workload.
  std::string workdir;
};

/// Each workload sets up (several times, keeping the last), runs its timed
/// window, records peak RSS, then verifies every timed op's output. Returns
/// false only when set-up itself cannot proceed (the message is in
/// `record->errors`); failed or mismatched ops are counted in `record`.
bool RunMineHeap(const Config& config, Tracer* tracer, RunRecord* record);
bool RunMineMemPar(const Config& config, Tracer* tracer, RunRecord* record);
bool RunServeAppend(const Config& config, Tracer* tracer, RunRecord* record);

}  // namespace perfbench

#endif  // SETM_PERFBENCH_WORKLOADS_H_
