#ifndef SETM_OBS_MINING_TRACE_H_
#define SETM_OBS_MINING_TRACE_H_

#include <cstdint>

#include "core/types.h"
#include "obs/trace.h"

namespace setm::obs {

/// Bridges the MiningObserver seam into a trace tree: installed on a
/// MiningRequest, it turns every completed iteration into an "iteration"
/// child span under `parent`, carrying the iteration's wall time, tuple
/// cardinalities (|R'_k|, |R_k|, |C_k|) and — when a ledger is supplied —
/// the page reads the iteration cost. Because every miner already reports
/// through NotifyIteration, this traces all six algorithms without a
/// line of per-algorithm code.
///
/// Chains an optional inner observer so tracing composes with user
/// callbacks (progress bars, cancellation): the inner observer's verdict
/// decides whether mining continues. Runs on the mining thread, same as
/// any observer.
class TracingObserver : public MiningObserver {
 public:
  /// `parent` is the span to hang iteration spans off (not owned, must
  /// outlive the mine call). `ledger` (optional) attributes per-iteration
  /// page-read deltas. `inner` (optional) is the caller's own observer.
  TracingObserver(TraceSpan* parent, const IoStats* ledger,
                  MiningObserver* inner = nullptr);

  bool OnIteration(const IterationStats& stats) override;

 private:
  TraceSpan* parent_;
  const IoStats* ledger_;
  MiningObserver* inner_;
  uint64_t last_reads_ = 0;
};

}  // namespace setm::obs

#endif  // SETM_OBS_MINING_TRACE_H_
