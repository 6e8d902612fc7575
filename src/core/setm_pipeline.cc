#include "core/setm_pipeline.h"

#include "obs/metrics.h"

namespace setm {

namespace {

/// Appends `table`'s entries in item order as (item_1..item_k, count) rows.
/// A run row's count is an int32, so a larger count takes several rows;
/// the merge sums them like the counts of one itemset from several runs.
void AppendEntryRows(const ItemsetCounts& table, std::vector<int32_t>* rows) {
  constexpr int64_t kMaxRowCount = INT32_MAX;
  const size_t k = table.k();
  table.ForEachSorted([&](const ItemId* items, int64_t count) {
    for (; count > 0; count -= kMaxRowCount) {
      rows->insert(rows->end(), items, items + k);
      rows->push_back(static_cast<int32_t>(std::min(count, kMaxRowCount)));
    }
  });
}

/// A cursor and its current row (null once drained).
struct Head {
  IntRowCursor* cursor;
  const int32_t* row = nullptr;

  Status Advance() {
    auto more = cursor->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) row = nullptr;
    return Status::OK();
  }
};

void FlushCountMetrics(const CountStats& stats) {
  static obs::Counter* rows = obs::MetricsRegistry::Global()->GetCounter(
      "setm_count_rows_total", "R'_k rows aggregated by the C_k count");
  static obs::Counter* spilled = obs::MetricsRegistry::Global()->GetCounter(
      "setm_count_spilled_runs_total",
      "Runs of (itemset, count) entries the C_k count spilled");
  static obs::Gauge* peak = obs::MetricsRegistry::Global()->GetGauge(
      "setm_mem_count_bytes",
      "High-water mark of one C_k count table's allocated bytes");
  rows->Increment(stats.rows);
  spilled->Increment(stats.spilled_runs);
  peak->RaiseTo(static_cast<int64_t>(stats.peak_bytes));
}

}  // namespace

BudgetedCount::BudgetedCount(ExecContext ctx, size_t k, size_t budget_bytes)
    : k_(k),
      budget_bytes_(budget_bytes),
      table_(k),
      runs_(ctx, k + 1, /*key_begin=*/0, /*key_end=*/k) {}

Status BudgetedCount::SpillAndAdd(const ItemId* items) {
  std::vector<int32_t> run;
  AppendEntryRows(table_, &run);
  ++stats_.spilled_runs;
  stats_.spilled_entries += table_.size();
  SETM_RETURN_IF_ERROR(runs_.AddSortedRun(run));
  table_.Clear();
  table_.Add(items, 1);  // an empty table takes any itemset without growing
  return Status::OK();
}

Status BudgetedCount::Finish(int64_t min_count,
                             std::vector<PatternCount>* out) {
  stats_.peak_bytes = table_.bytes();  // the table never shrinks
  FlushCountMetrics(stats_);
  if (stats_.spilled_runs == 0) {
    table_.AppendAtLeast(min_count, out);
    return Status::OK();
  }
  std::vector<int32_t> rest;
  AppendEntryRows(table_, &rest);
  table_ = ItemsetCounts(k_);
  auto runs_or = runs_.Finish();
  if (!runs_or.ok()) return runs_or.status();
  IntArrayCursor rest_cursor(&rest, k_ + 1);
  Head heads[2] = {{runs_or.value().get()}, {&rest_cursor}};
  for (Head& head : heads) SETM_RETURN_IF_ERROR(head.Advance());
  std::vector<ItemId> items(k_);
  while (heads[0].row != nullptr || heads[1].row != nullptr) {
    const int32_t* first = heads[0].row;
    if (first == nullptr ||
        (heads[1].row != nullptr &&
         std::lexicographical_compare(heads[1].row, heads[1].row + k_, first,
                                      first + k_))) {
      first = heads[1].row;
    }
    items.assign(first, first + k_);
    int64_t count = 0;
    for (Head& head : heads) {
      while (head.row != nullptr &&
             std::equal(items.begin(), items.end(), head.row)) {
        count += head.row[k_];
        SETM_RETURN_IF_ERROR(head.Advance());
      }
    }
    if (count >= min_count) out->push_back(PatternCount{items, count});
  }
  return Status::OK();
}

Status FilterByCk(const IntRelation& left, const IntRelation& r1,
                  const ItemsetCounts& ck, IntRelation* out) {
  SETM_DCHECK(ck.k() + 1 == out->width());
  IntRowBatch batch(out);
  std::vector<int32_t> last;  // the previous row, for the order check
  const auto keep = [&](const int32_t* row) {
#ifndef NDEBUG
    // R_k is appended in arrival order and never sorted, so the rows must
    // arrive in (trans_id, item_1..item_k) order.
    const int32_t* end = row + out->width();
    SETM_CHECK(last.empty() || !std::lexicographical_compare(
                                   row, end, last.begin(), last.end()));
    last.assign(row, end);
#endif
    return ck.Count(row + 1) != 0 ? batch.Add(row) : Status::OK();
  };
  if (ck.k() == 1) {
    SETM_RETURN_IF_ERROR(ForEachRow(left.Scan().get(), keep));
  } else {
    SETM_RETURN_IF_ERROR(JoinRkPrime(left, r1, keep));
  }
  return batch.Flush();
}

}  // namespace setm
