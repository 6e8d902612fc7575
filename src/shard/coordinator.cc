#include "shard/coordinator.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/timer.h"
#include "core/setm_pipeline.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace setm::shard {

namespace {

/// Process-wide coordinator counters (get-or-create once, cached forever).
struct ShardMetrics {
  obs::Counter* runs;
  obs::Counter* failures;
  obs::Counter* iterations;
  obs::Counter* entries;
};

ShardMetrics* Metrics() {
  static ShardMetrics* metrics = [] {
    auto* registry = obs::MetricsRegistry::Global();
    auto* m = new ShardMetrics();
    m->runs = registry->GetCounter(
        "setm_shard_runs_total",
        "Coordinator mining runs started: every SETM mine (serial ones run "
        "as one shard), sharded-database and remote mines included");
    m->failures =
        registry->GetCounter("setm_shard_run_failures_total",
                             "Coordinator mining runs that returned an error");
    m->iterations = registry->GetCounter(
        "setm_shard_iterations_total",
        "Coordinator iterations completed by every SETM mine, serial ones "
        "included");
    m->entries = registry->GetCounter(
        "setm_count_entries_total",
        "(parent id, item) count keys shards handed to the coordinator's "
        "merge");
    return m;
  }();
  return metrics;
}

/// Maps a shard-side error to the coordinator's contract: connection-level
/// failures become Unavailable naming the shard, cancellation passes
/// through, everything else keeps its code with the shard named.
Status WrapShardError(const std::string& shard, const char* phase,
                      const Status& s) {
  if (s.ok() || s.IsCancelled()) return s;
  if (s.IsIOError() || s.IsUnavailable()) {
    return Status::Unavailable("shard '" + shard + "' unavailable during " +
                               phase + ": " + s.message());
  }
  return Status(s.code(),
                "shard '" + shard + "' " + phase + ": " + s.message());
}

/// Per-shard state owned by exactly one fan-out task per call; the
/// coordinator reads it only after the barrier (TaskGroup::Wait).
struct ShardState {
  ShardBackend* backend = nullptr;
  ShardReply reply;           ///< the last call's reply
  double last_seconds = 0.0;  ///< coordinator-observed latency of that call
  obs::Histogram* latency = nullptr;
};

/// One shard call per shard, in parallel: CountFirstIteration when `ck` is
/// null, else ApplyGlobalCk(k, *ck), the broadcast of the surviving C_k.
Status CallShards(WorkerPool* pool, std::vector<ShardState>* states,
                  size_t k, const std::vector<CandidateKey>* ck) {
  TaskGroup group(pool);
  for (ShardState& s : *states) {
    ShardState* state = &s;
    group.Submit([state, k, ck] {
      WallTimer timer;
      auto reply_or = ck == nullptr ? state->backend->CountFirstIteration()
                                    : state->backend->ApplyGlobalCk(k, *ck);
      state->last_seconds = timer.ElapsedSeconds();
      state->latency->ObserveDurationMicros(state->last_seconds);
      if (!reply_or.ok()) {
        return WrapShardError(state->backend->name(),
                              ck == nullptr ? "local count" : "C_k pass",
                              reply_or.status());
      }
      state->reply = std::move(reply_or).value();
      return Status::OK();
    });
  }
  return group.Wait();
}

/// Checks shard `s`'s (parent id, item, count) rows against `prev`,
/// C_{k-1} (null for k = 1): each key passes IndexCandidates' per-key check
/// (CheckKey), but for the consecutive rows of a count above INT32_MAX, and
/// each count is positive, the reply's summing to at most its rprime and
/// `*total`, every reply's so far, to at most INT64_MAX, so no merged sum
/// overflows. Adds the keys to `*keys`. Else Corruption naming the shard.
Status CheckReply(const ShardState& s, const CandidateLevel* prev,
                  int64_t* total, uint64_t* keys) {
  const auto refuse = [&](const std::string& why) {
    return Status::Corruption("shard '" + s.backend->name() + "' reported " +
                              why);
  };
  const std::vector<int32_t>& rows = s.reply.counts;
  if (rows.size() % 3 != 0) return refuse("a partial count row");
  std::optional<CandidateKey> last;
  uint64_t counted = 0;
  for (size_t at = 0; at < rows.size(); at += 3) {
    const int32_t* row = rows.data() + at;
    const CandidateKey key{row[0], row[1]};
    if (!(last == key && row[-1] == INT32_MAX)) {  // not a split count
      auto rank = CheckKey(prev, last ? &*last : nullptr, key);
      if (!rank.ok()) return refuse(rank.status().message());
      ++*keys;
      last = key;
    }
    if (row[2] < 1 ||
        (counted += static_cast<uint64_t>(row[2])) > s.reply.r_prime_rows ||
        *total > INT64_MAX - row[2]) {
      return refuse("a count of " + std::to_string(row[2]) + " for key (" +
                    std::to_string(key.parent) + ", " +
                    std::to_string(key.item) + ") past rprime=" +
                    std::to_string(s.reply.r_prime_rows) + " or INT64_MAX");
    }
    *total += row[2];
  }
  return Status::OK();
}

/// Sums every shard's partial counts of k-itemsets, keyed by (C_{k-1} id,
/// item), and applies the global minsupport and any `lattice`. `*level` is
/// C_{k-1}'s level on entry (ignored for k = 1), against which each reply
/// is checked, and C_k's on return. The checked replies are summed in the
/// count's own k-way merge (SumByKey), so the survivors come out in key
/// order: they are C_k's keys, `*ck`, the next broadcast as it is. Each key
/// past minsupport is spelled out as its parent's itemset, C_{k-1} being
/// added to `itemsets` in id order, plus its item. `*entries` counts the
/// keys the shards handed over.
Status MergeCounts(std::vector<ShardState>* states, size_t k, int64_t minsup,
                   const FrequentItemsets* lattice, CandidateLevel* level,
                   uint64_t* c_size, uint64_t* entries,
                   FrequentItemsets* itemsets, std::vector<CandidateKey>* ck) {
  const CandidateLevel* prev = k == 1 ? nullptr : level;
  *entries = 0;
  int64_t total = 0;
  std::vector<std::unique_ptr<IntRowCursor>> replies;
  for (ShardState& s : *states) {
    SETM_RETURN_IF_ERROR(CheckReply(s, prev, &total, entries));
    replies.push_back(
        std::make_unique<IntArrayCursor>(std::move(s.reply.counts), 3));
  }
  Metrics()->entries->Increment(*entries);
  ck->clear();
  SETM_RETURN_IF_ERROR(SumByKey(
      2, std::move(replies), [&](const ItemId* key, int64_t count) -> Status {
        if (count < minsup) return Status::OK();
        std::vector<ItemId> items;
        if (k >= 2) items = itemsets->OfSize(k - 1)[key[0]].items;
        items.push_back(key[1]);
        if (lattice != nullptr && lattice->CountOf(items) == 0) {
          return Status::OK();
        }
        ck->push_back(CandidateKey{key[0], key[1]});
        itemsets->Add(std::move(items), count);
        ++*c_size;
        return Status::OK();
      }));
  auto level_or = IndexCandidates(k, *ck, prev);
  if (!level_or.ok()) return level_or.status();
  *level = std::move(level_or).value();
  return Status::OK();
}

/// Attaches one completed iteration span with nested per-shard children.
/// `entries` is the count keys the shards handed over for C_k.
void RecordIterationTrace(obs::TraceSpan* trace, const IterationStats& stats,
                          uint64_t entries,
                          const std::vector<ShardState>& states) {
  if (trace == nullptr) return;
  obs::TraceSpan* iter = trace->AddCompletedChild(
      "iteration k=" + std::to_string(stats.k), stats.seconds, 0);
  iter->AddCount("|R'|", stats.r_prime_rows);
  iter->AddCount("|R|", stats.r_rows);
  iter->AddCount("|C|", stats.c_size);
  iter->AddCount("entries", entries);
  for (const ShardState& s : states) {
    iter->AddCompletedChild("shard " + s.backend->name(), s.last_seconds, 0);
  }
}

/// Best-effort EndRun on every shard (idempotent by contract).
void EndAll(std::vector<ShardState>* states) {
  for (ShardState& s : *states) s.backend->EndRun();
}

}  // namespace

Result<MiningResult> DistributedMine(const std::vector<ShardBackend*>& shards,
                                     const MiningOptions& options,
                                     const CoordinatorOptions& coord) {
  if (shards.empty()) {
    return Status::InvalidArgument(
        "distributed mine needs at least one shard");
  }
  Metrics()->runs->Increment();
  WallTimer total_timer;
  MiningResult result;

  ShardRunOptions run = coord.run;
  run.filter_r1 = options.filter_r1;
  run.max_pattern_length = options.max_pattern_length;

  std::vector<ShardState> states(shards.size());
  auto* registry = obs::MetricsRegistry::Global();
  for (size_t i = 0; i < shards.size(); ++i) {
    states[i].backend = shards[i];
    states[i].latency = registry->GetHistogram(
        "setm_shard_s" + std::to_string(i) + "_lcount_micros",
        "Coordinator-observed latency of each per-iteration call to shard "
        "slot " +
            std::to_string(i));
  }

  // Single-exit error path: never returns partial results, always releases
  // every shard's run state.
  auto fail = [&states](Status s) {
    if (!s.IsCancelled()) Metrics()->failures->Increment();
    EndAll(&states);
    return s;
  };

  {
    TaskGroup group(coord.pool);
    for (ShardState& s : states) {
      ShardState* state = &s;
      group.Submit([state, &run] {
        return WrapShardError(state->backend->name(), "begin",
                              state->backend->BeginRun(run));
      });
    }
    Status s = group.Wait();
    if (!s.ok()) return fail(s);
  }

  // The count entries merged into the current C_k.
  uint64_t entries = 0;
  // Records a completed iteration and asks the observer whether to go on.
  auto finish_iteration = [&](const IterationStats& stats) {
    RecordIterationTrace(coord.trace, stats, entries, states);
    result.iterations.push_back(stats);
    Metrics()->iterations->Increment();
    return NotifyIteration(options, stats);
  };

  // --- Iteration 1: R_1 slices and the global C_1. ------------------------
  int64_t minsup = 0;
  IterationStats stats;
  std::vector<CandidateKey> ck;  // the global C_k's keys, in key order
  CandidateLevel level;          // C_k's ids: the next merge's parents
  {
    WallTimer iter_timer;
    Status s = CallShards(coord.pool, &states, 1, nullptr);
    if (!s.ok()) return fail(s);
    uint64_t num_transactions = 0;
    for (const ShardState& st : states) {
      num_transactions += st.reply.transactions;
    }
    result.itemsets.num_transactions = num_transactions;
    minsup = coord.lattice != nullptr
                 ? 1  // a lattice count keeps members whatever their counts
                 : ResolveMinSupportCount(options, num_transactions);
    // A sole shard's local counts are global: let it prune at minsupport.
    if (states.size() == 1) states[0].backend->SetCountFloor(minsup);

    stats.k = 1;
    for (const ShardState& st : states) {
      stats.r_prime_rows += st.reply.r_prime_rows;
      stats.r_rows += st.reply.r_rows;
      stats.r_bytes += st.reply.r_bytes;
      stats.r_pages += st.reply.r_pages;
    }
    s = MergeCounts(&states, 1, minsup, coord.lattice, &level,
                    &stats.c_size, &entries, &result.itemsets, &ck);
    if (!s.ok()) return fail(s);
    stats.seconds = iter_timer.ElapsedSeconds();
    s = finish_iteration(stats);
    if (!s.ok()) return fail(s);
  }

  // --- Main loop (Figure 4, distributed). ---------------------------------
  // One shard call per iteration: pass k writes every shard's R_k from the
  // global C_k (for k == 1, R_1 itself, filtered under filter_r1) and
  // returns the local counts of R'_{k+1}, merged here into C_{k+1}. Pass
  // 1, which counts R'_2 from R_1, is timed with iteration 2.
  WallTimer iter_timer;
  for (size_t k = 1;; ++k) {
    // The pass always runs, C_k empty or not: every shard materializes its
    // (possibly empty) R_k, as Figure 4's loop does, so the iteration stats
    // and observer callbacks match setm-sql's.
    Status s = CallShards(coord.pool, &states, k, &ck);
    if (!s.ok()) return fail(s);
    uint64_t r_rows = 0;
    for (const ShardState& st : states) r_rows += st.reply.r_rows;
    if (k >= 2) {
      stats.r_rows = r_rows;
      for (const ShardState& st : states) {
        stats.r_bytes += st.reply.r_bytes;
        stats.r_pages += st.reply.r_pages;
      }
      stats.seconds = iter_timer.ElapsedSeconds();
      s = finish_iteration(stats);
      if (!s.ok()) return fail(s);
      iter_timer.Restart();
    }
    if (r_rows == 0) break;
    if (options.max_pattern_length != 0 && k >= options.max_pattern_length) {
      break;
    }

    // Iteration k + 1 begins: the summed counts of R'_{k+1} give C_{k+1}.
    stats = IterationStats{};
    stats.k = k + 1;
    for (const ShardState& st : states) {
      stats.r_prime_rows += st.reply.r_prime_rows;
    }
    s = MergeCounts(&states, k + 1, minsup, coord.lattice, &level,
                    &stats.c_size, &entries, &result.itemsets, &ck);
    if (!s.ok()) return fail(s);
  }

  {
    TaskGroup group(coord.pool);
    for (ShardState& s : states) {
      ShardState* state = &s;
      group.Submit([state] {
        return WrapShardError(state->backend->name(), "end",
                              state->backend->EndRun());
      });
    }
    Status s = group.Wait();
    if (!s.ok()) return fail(s);
  }

  result.itemsets.Normalize();
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace setm::shard
