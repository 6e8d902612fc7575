#include "core/mining_planner.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/miner_registry.h"
#include "incremental/delta_miner.h"
#include "obs/metrics.h"
#include "obs/mining_trace.h"

namespace setm {

namespace {

// Process-wide mirror of the per-planner PlanStats, plus the request
// latency distribution — what a scrape sees across every planner instance.
struct GlobalPlanMetrics {
  obs::Counter* requests;
  obs::Counter* cache_filters;
  obs::Counter* delta_derives;
  obs::Counter* full_mines;
  obs::Counter* write_backs;
  obs::Counter* invalidations;
  obs::Histogram* request_micros;
};

const GlobalPlanMetrics& PlanMetrics() {
  static const GlobalPlanMetrics metrics = [] {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
    GlobalPlanMetrics m;
    m.requests = registry->GetCounter("setm_plan_requests_total",
                                      "Mining requests planned");
    m.cache_filters = registry->GetCounter(
        "setm_plan_cache_filter_total",
        "Requests answered by filtering a stored run (zero mining)");
    m.delta_derives = registry->GetCounter(
        "setm_plan_delta_derive_total",
        "Requests answered by incremental derivation");
    m.full_mines = registry->GetCounter("setm_plan_full_mine_total",
                                        "Requests answered by a full mine");
    m.write_backs = registry->GetCounter(
        "setm_plan_write_back_total", "Results written back into the store");
    m.invalidations = registry->GetCounter(
        "setm_plan_invalidation_total",
        "Stored runs found unusable for a request");
    m.request_micros = registry->GetHistogram(
        "setm_plan_request_micros",
        "Microseconds per executed mining request, end to end");
    return m;
  }();
  return metrics;
}

/// Non-empty transactions — the unit every support fraction resolves
/// against (empty baskets carry no items and are not counted as coverage).
uint64_t CountNonEmpty(const TransactionDb& txns) {
  uint64_t n = 0;
  for (const Transaction& t : txns) {
    if (!t.items.empty()) ++n;
  }
  return n;
}

/// The stored run answers the same question iff the support spec and the
/// pattern cap match; anything else makes its supports useless for
/// derivation.
bool SpecCompatible(const StoredRunMeta& meta, const MiningOptions& options) {
  return meta.spec_min_support == options.min_support &&
         meta.spec_min_support_count == options.min_support_count &&
         meta.max_pattern_length == options.max_pattern_length;
}

/// The batch-id rule: ids are unique and, when there is a `floor`, above
/// it. An id at or below the floor is already counted and a repeated one
/// would be counted twice, so either is refused rather than answered
/// wrongly. `floor_name` names the floor in the message. Raises
/// `*watermark` to the highest batch id.
Status CheckBatchIds(const TransactionDb& batch,
                     std::optional<TransactionId> floor,
                     const char* floor_name, TransactionId* watermark) {
  std::unordered_set<TransactionId> seen;
  for (const Transaction& t : batch) {
    if (floor.has_value() && t.id <= *floor) {
      return Status::InvalidArgument(
          "delta transaction " + std::to_string(t.id) + " is at or below " +
          floor_name + " " + std::to_string(*floor));
    }
    if (!seen.insert(t.id).second) {
      return Status::InvalidArgument("duplicate delta transaction id " +
                                     std::to_string(t.id));
    }
    *watermark = std::max(*watermark, t.id);
  }
  return Status::OK();
}

/// The orphan rule. Rows beyond the stored watermark that no store refresh
/// accounts for are a crash-interrupted append: its batch committed but
/// the save after it did not. Commit() marks whole batches only, so the
/// orphans are complete transactions, and the retry contract is that the
/// caller re-submits the same batch, whose orphan ids are then skipped on
/// insert. A batch that leaves an orphan out means the table and the retry
/// diverged; refuse it under every strategy rather than mix two batches.
Status CheckOrphansResubmitted(const TransactionDb& batch,
                               const std::vector<TransactionId>& orphans,
                               const Table& table, TransactionId watermark) {
  if (orphans.empty()) return Status::OK();
  std::unordered_set<TransactionId> batch_ids;
  for (const Transaction& t : batch) batch_ids.insert(t.id);
  for (TransactionId tid : orphans) {
    if (batch_ids.count(tid) == 0) {
      return Status::InvalidArgument(
          "table '" + table.name() + "' already holds transaction " +
          std::to_string(tid) + " beyond the stored watermark " +
          std::to_string(watermark) +
          " (a crash-interrupted append), and this batch does not "
          "re-submit it — retry the interrupted batch first");
    }
  }
  return Status::OK();
}

/// One decimal place is plenty for plan reasons ("12.5% of the combined
/// database").
std::string Percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace

std::string PlanStats::ToString() const {
  return "plans=" + std::to_string(plans) +
         " cache_filters=" + std::to_string(cache_filters) +
         " delta_derives=" + std::to_string(delta_derives) +
         " full_mines=" + std::to_string(full_mines) +
         " write_backs=" + std::to_string(write_backs) +
         " invalidations=" + std::to_string(invalidations);
}

const char* PlanStrategyName(PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kCacheFilter:
      return "cache-filter";
    case PlanStrategy::kDeltaDerive:
      return "delta-derive";
    case PlanStrategy::kFullMine:
      return "full-mine";
  }
  return "unknown";
}

std::string MiningPlan::Explain() const {
  std::string out = "strategy: ";
  out += PlanStrategyName(strategy);
  out += "\nreason: " + reason;
  if (store_found) {
    out += "\nstored run: " + std::to_string(stored.num_transactions) +
           " transactions at support " +
           std::to_string(stored.min_support_count) + ", watermark " +
           std::to_string(stored.watermark);
    if (!stored.source_table.empty()) {
      out += ", source '" + stored.source_table + "' (" +
             std::to_string(stored.source_rows) + " rows at save)";
    }
  }
  if (resolved_min_support_count > 0) {
    out += "\nresolved min support: " +
           std::to_string(resolved_min_support_count) + " transactions";
  }
  if (!delta.empty()) {
    out += "\ndelta: " + std::to_string(delta.size()) + " transactions";
    if (!orphans.empty()) {
      out += " (" + std::to_string(orphans.size()) +
             " already in the table from an interrupted append)";
    }
  }
  out += save_after_mine ? "\nwrite-back: yes" : "\nwrite-back: no";
  return out;
}

MiningPlanner::MiningPlanner(Database* db, PlannerOptions options)
    : db_(db), options_(std::move(options)) {
  if (!options_.store_prefix.empty()) {
    store_ = std::make_unique<ItemsetStore>(db_, options_.store_prefix,
                                            options_.store_backing);
  }
}

Status MiningPlanner::ValidateRequest(const PlanRequest& request) const {
  const int sources = (request.table != nullptr ? 1 : 0) +
                      (request.transactions != nullptr ? 1 : 0);
  if (sources != 1) {
    return Status::InvalidArgument(
        "mining request must set exactly one source (table or "
        "transactions)");
  }
  if (request.append != nullptr && request.table == nullptr) {
    return Status::InvalidArgument(
        "append batches require a table source — an in-memory transaction "
        "database has nothing durable to append to");
  }
  if (request.append != nullptr) {
    SETM_RETURN_IF_ERROR(ValidateTransactions(*request.append));
  }
  return Status::OK();
}

Result<MiningPlan> MiningPlanner::Plan(const PlanRequest& request) {
  SETM_RETURN_IF_ERROR(ValidateRequest(request));
  ++stats_.plans;
  PlanMetrics().requests->Increment();
  auto invalidate = [this] {
    ++stats_.invalidations;
    PlanMetrics().invalidations->Increment();
  };

  MiningPlan plan;
  plan.strategy = PlanStrategy::kFullMine;
  plan.resolved_min_support_count = request.options.min_support_count;
  const bool has_batch =
      request.append != nullptr && !request.append->empty();
  if (has_batch) plan.delta = *request.append;

  // In-memory sources have no catalog identity to key a cache entry on.
  if (request.transactions != nullptr) {
    plan.reason =
        "in-memory transaction source — caching needs a catalog relation";
    return plan;
  }

  Table* table = request.table;

  if (store_ == nullptr) {
    plan.reason = "result cache disabled (no store prefix configured)";
    // Without a store there is no watermark; only in-batch duplicates
    // can be rejected cheaply.
    if (has_batch) {
      SETM_RETURN_IF_ERROR(CheckBatchIds(*request.append, std::nullopt, "",
                                         &plan.new_watermark));
    }
    return plan;
  }

  // With a store every plan but kCacheFilter writes its answer back.
  plan.save_after_mine = true;
  auto meta_or = store_->LoadMeta();
  if (meta_or.ok()) {
    plan.store_found = true;
    plan.stored = std::move(meta_or).value();
  } else if (meta_or.status().code() != StatusCode::kNotFound) {
    return meta_or.status();
  }
  const StoredRunMeta& stored = plan.stored;

  // A stored run speaks only for the relation it was mined from.
  if (!plan.store_found ||
      (!stored.source_table.empty() && stored.source_table != table->name())) {
    if (plan.store_found) {
      plan.reason = "stored run was mined from '" + stored.source_table +
                    "', not '" + table->name() + "'";
      invalidate();
    } else {
      // Cache miss: either nothing stored under the prefix or the stored
      // run's source table has been dropped — the probe's message says
      // which.
      plan.reason = meta_or.status().message();
    }
    // Watermark discipline without a usable store: batch ids must clear
    // whatever the table already holds, and the write-back must record the
    // true high-water mark, so establish it with one scan (skipped when the
    // table is empty).
    TransactionId existing_max = 0;
    if (table->num_rows() > 0) {
      SETM_RETURN_IF_ERROR(ForEachInt32Pair(
          *table, [&existing_max](TransactionId tid, ItemId) {
            existing_max = std::max(existing_max, tid);
          }));
    }
    plan.new_watermark = existing_max;
    if (has_batch) {
      SETM_RETURN_IF_ERROR(CheckBatchIds(*request.append, existing_max,
                                         "the highest existing trans_id",
                                         &plan.new_watermark));
    }
    return plan;
  }

  plan.new_watermark = stored.watermark;
  if (has_batch) {
    SETM_RETURN_IF_ERROR(CheckBatchIds(*request.append, stored.watermark,
                                       "the stored watermark",
                                       &plan.new_watermark));
  }

  // Freshness. Source tables are append-only, so a live row count equal to
  // the count recorded at save time proves the store still covers the whole
  // table — an O(1) check with zero page reads. Anything else needs one
  // scan of the tail beyond the watermark (crash-interrupted appends, rows
  // added without a store refresh, or a legacy store without source_rows).
  const bool rows_match =
      stored.source_rows != 0 && table->num_rows() == stored.source_rows;
  if (!rows_match) {
    std::map<TransactionId, std::vector<ItemId>> tail;
    uint64_t tail_rows = 0;
    SETM_RETURN_IF_ERROR(ForEachInt32Pair(
        *table, [&](TransactionId tid, ItemId item) {
          if (tid > stored.watermark) {
            tail[tid].push_back(item);
            ++tail_rows;
          }
        }));
    if (stored.source_rows != 0 &&
        stored.source_rows + tail_rows != table->num_rows()) {
      // The table changed at or below the watermark (or shrank) — the
      // stored counts describe data that no longer exists as saved.
      plan.reason = "table '" + table->name() +
                    "' changed at or below the stored watermark " +
                    std::to_string(stored.watermark) +
                    " — stored counts are unusable";
      invalidate();
      return plan;
    }
    for (auto& [tid, items] : tail) {
      plan.orphans.push_back(tid);
      plan.new_watermark = std::max(plan.new_watermark, tid);
      if (!has_batch) {
        Transaction t;
        t.id = tid;
        std::sort(items.begin(), items.end());
        items.erase(std::unique(items.begin(), items.end()), items.end());
        t.items = std::move(items);
        plan.delta.push_back(std::move(t));
      }
    }
  }
  if (has_batch) {
    SETM_RETURN_IF_ERROR(CheckOrphansResubmitted(
        *request.append, plan.orphans, *table, stored.watermark));
  }

  const bool stale = has_batch || !plan.orphans.empty();
  if (!stale) {
    // The store covers exactly the live table; domination is now a pure
    // threshold-and-cap comparison against the meta row.
    const int64_t query_minsup =
        ResolveMinSupportCount(request.options, stored.num_transactions);
    plan.resolved_min_support_count = query_minsup;
    const bool cap_ok =
        stored.max_pattern_length == 0 ||
        (request.options.max_pattern_length != 0 &&
         request.options.max_pattern_length <= stored.max_pattern_length);
    if (query_minsup >= stored.min_support_count && cap_ok) {
      plan.strategy = PlanStrategy::kCacheFilter;
      plan.save_after_mine = false;
      plan.reason = "stored run at support " +
                    std::to_string(stored.min_support_count) +
                    " dominates the query at support " +
                    std::to_string(query_minsup) +
                    " — filter stored levels, no mining";
      return plan;
    }
    if (!cap_ok) {
      plan.reason =
          "stored run is capped at patterns of length " +
          std::to_string(stored.max_pattern_length) +
          " and cannot answer a query capped at " +
          std::to_string(request.options.max_pattern_length) +
          (request.options.max_pattern_length == 0 ? " (unbounded)" : "");
    } else {
      plan.reason = "query at support " + std::to_string(query_minsup) +
                    " is below the stored threshold " +
                    std::to_string(stored.min_support_count) +
                    " — the store cannot contain every answer";
    }
    invalidate();
    return plan;
  }

  // Stale store. Derivation needs the stored run to answer the same
  // question and the delta to stay within the budget.
  if (!SpecCompatible(stored, request.options)) {
    plan.reason =
        "stored run answers a different question (support spec or pattern "
        "cap differ) — derivation impossible";
    invalidate();
    return plan;
  }

  const uint64_t delta_txns = CountNonEmpty(plan.delta);
  const uint64_t combined = stored.num_transactions + delta_txns;
  plan.resolved_min_support_count =
      ResolveMinSupportCount(request.options, combined);
  const double fraction =
      static_cast<double>(delta_txns) /
      static_cast<double>(std::max<uint64_t>(combined, 1));
  if (fraction > options_.full_remine_fraction) {
    plan.reason =
        options_.full_remine_fraction <= 0.0
            ? "incremental derivation disabled (budget 0%) — full remine"
            : "delta is " + Percent(fraction) +
                  " of the combined database, above the " +
                  Percent(options_.full_remine_fraction) +
                  " derivation budget";
    invalidate();
    return plan;
  }
  plan.strategy = PlanStrategy::kDeltaDerive;
  plan.reason = "delta is " + Percent(fraction) +
                " of the combined database, within the " +
                Percent(options_.full_remine_fraction) +
                " derivation budget";
  return plan;
}

Result<PlanExecution> MiningPlanner::Execute(const PlanRequest& request) {
  WallTimer total_timer;
  const IoStats io_before = *db_->io_stats();
  obs::TraceSpan* root = request.trace;

  obs::TraceSpan* plan_span =
      root != nullptr ? root->StartChild("plan") : nullptr;
  auto plan_or = Plan(request);
  if (plan_span != nullptr) plan_span->End();
  if (!plan_or.ok()) return plan_or.status();

  PlanExecution out;
  out.plan = std::move(plan_or).value();
  out.delta_transactions = CountNonEmpty(out.plan.delta);

  // With a trace attached, the execution phase gets its own child span and
  // mining strategies get a TracingObserver wrapped around the caller's
  // observer, so every iteration lands as a span. Cache filtering runs no
  // iterations; its "load" span stays childless by construction.
  PlanRequest run = request;
  std::optional<obs::TracingObserver> tracing;
  obs::TraceSpan* exec_span = nullptr;
  if (root != nullptr) {
    root->AddTag("strategy", PlanStrategyName(out.plan.strategy));
    switch (out.plan.strategy) {
      case PlanStrategy::kCacheFilter:
        exec_span = root->StartChild("load");
        break;
      case PlanStrategy::kDeltaDerive:
        exec_span = root->StartChild("derive");
        break;
      case PlanStrategy::kFullMine:
        exec_span = root->StartChild("mine");
        exec_span->AddTag("algorithm", options_.algorithm);
        break;
    }
    if (out.plan.strategy != PlanStrategy::kCacheFilter) {
      tracing.emplace(exec_span, db_->io_stats(), request.options.observer);
      run.options.observer = &*tracing;
    }
    run.trace = exec_span;  // the strategy's own spans go under it
  }

  Status status;
  switch (out.plan.strategy) {
    case PlanStrategy::kCacheFilter:
      status = ExecuteCacheFilter(run, &out);
      if (status.ok()) {
        ++stats_.cache_filters;
        PlanMetrics().cache_filters->Increment();
      }
      break;
    case PlanStrategy::kDeltaDerive:
      status = ExecuteDeltaDerive(run, &out);
      if (status.ok()) {
        ++stats_.delta_derives;
        PlanMetrics().delta_derives->Increment();
      }
      break;
    case PlanStrategy::kFullMine:
      status = ExecuteFullMine(run, &out);
      if (status.ok()) {
        ++stats_.full_mines;
        PlanMetrics().full_mines->Increment();
      }
      break;
  }
  if (exec_span != nullptr) exec_span->End();
  SETM_RETURN_IF_ERROR(status);

  // Plan-layer accounting covers the whole answer — probe, tail scan,
  // append, mine and write-back — which is the fair basis for comparing
  // strategies against each other.
  out.result.total_seconds = total_timer.ElapsedSeconds();
  out.result.io = Diff(*db_->io_stats(), io_before);
  PlanMetrics().request_micros->ObserveDurationMicros(
      out.result.total_seconds);
  return out;
}

Status MiningPlanner::ExecuteCacheFilter(const PlanRequest& request,
                                         PlanExecution* out) {
  auto loaded_or = store_->LoadAtSupport(out->plan.resolved_min_support_count,
                                         request.options.max_pattern_length);
  if (!loaded_or.ok()) return loaded_or.status();
  out->result.itemsets = std::move(loaded_or.value().itemsets);
  // Zero mining happened: no iterations, and the observer is never called.
  out->result.iterations.clear();
  return Status::OK();
}

Status MiningPlanner::ExecuteDeltaDerive(const PlanRequest& request,
                                         PlanExecution* out) {
  auto stored_or = store_->Load();
  if (!stored_or.ok()) return stored_or.status();
  auto derived_or =
      DeriveWithDelta(db_, stored_or.value(), out->plan.delta, *request.table,
                      options_.setm, request.options, request.trace);
  if (!derived_or.ok()) return derived_or.status();
  out->result = std::move(derived_or.value().result);
  out->borderline_candidates = derived_or.value().borderline_candidates;
  // The whole answer is computed, so an error above left the table
  // untouched. Only now does the batch reach the table, and only once it is
  // committed does the store move past it.
  SETM_RETURN_IF_ERROR(AppendDelta(request, out->plan));
  return SaveRun(request, out->plan, out->result.itemsets);
}

Status MiningPlanner::ExecuteFullMine(const PlanRequest& request,
                                      PlanExecution* out) {
  // Append the batch first, so the mine below sees the combined relation.
  if (request.table != nullptr) {
    SETM_RETURN_IF_ERROR(AppendDelta(request, out->plan));
  }

  auto miner_or =
      MinerRegistry::Create(options_.algorithm, db_, options_.setm);
  if (!miner_or.ok()) return miner_or.status();
  MiningRequest mine_request;
  mine_request.table = request.table;
  mine_request.transactions = request.transactions;
  mine_request.options = request.options;
  auto mined_or = miner_or.value()->Mine(mine_request);
  if (!mined_or.ok()) return mined_or.status();
  out->result = std::move(mined_or).value();
  if (request.trace != nullptr && out->result.sales_rows != 0) {
    // A SETM mine's intake, on the "mine" span its iterations hang from.
    request.trace->AddCount("sales_rows", out->result.sales_rows);
    request.trace->AddCount("kept_rows", out->result.kept_rows);
  }

  if (!out->plan.save_after_mine) return Status::OK();
  return SaveRun(request, out->plan, out->result.itemsets);
}

Status MiningPlanner::AppendDelta(const PlanRequest& request,
                                  const MiningPlan& plan) {
  const std::unordered_set<TransactionId> orphans(plan.orphans.begin(),
                                                  plan.orphans.end());
  bool inserted = false;
  for (const Transaction& t : plan.delta) {
    if (orphans.count(t.id) != 0) continue;  // already in the table
    for (ItemId item : t.items) {
      SETM_RETURN_IF_ERROR(request.table->Insert(
          Tuple({Value::Int32(t.id), Value::Int32(item)})));
      inserted = true;
    }
  }
  // Batch boundary: from here the rows are crash-durable, and replay-atomic
  // as a unit, while the store save that follows still has to checkpoint.
  // A kill in between leaves exactly the orphans Plan() recognises on retry.
  return inserted ? db_->Commit() : Status::OK();
}

Status MiningPlanner::SaveRun(const PlanRequest& request,
                              const MiningPlan& plan,
                              const FrequentItemsets& itemsets) {
  SETM_RETURN_IF_ERROR(store_->Save(
      itemsets,
      MakeRunMeta(itemsets, request.options, plan.new_watermark,
                  request.table->name(), request.table->num_rows())));
  ++stats_.write_backs;
  PlanMetrics().write_backs->Increment();
  return Status::OK();
}

}  // namespace setm
