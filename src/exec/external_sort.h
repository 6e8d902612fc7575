#ifndef SETM_EXEC_EXTERNAL_SORT_H_
#define SETM_EXEC_EXTERNAL_SORT_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/exec_context.h"
#include "relational/int_relation.h"
#include "relational/table.h"
#include "relational/tuple.h"

namespace setm {

/// Observability counters for one sort.
struct SortStats {
  uint64_t rows = 0;           ///< rows sorted
  uint64_t runs = 0;           ///< sorted runs created (1 if fully in-memory)
  uint64_t spilled_runs = 0;   ///< runs written to temp storage
  uint64_t merge_passes = 0;   ///< intermediate merge passes (0 or more)
};

namespace sort_internal {
template <typename Rows>
class RunSort;
struct TupleRows;
struct IntRows;
}  // namespace sort_internal

/// Bounded-memory external merge sort — one of the two primitives Algorithm
/// SETM is made of ("basic steps are sorting and merge scan join").
///
/// Rows are buffered until the configured memory budget is reached, then
/// stable-sorted and spilled as a run (a TableHeap in temp storage, so run
/// I/O lands in the shared IoStats ledger). Finish() merges the runs with a
/// bounded fan-in, cascading extra merge passes when the run count exceeds
/// it. The overall sort is stable: equal keys keep arrival order.
///
/// The algorithm exists once (exec/external_sort.cc, a template over the
/// row buffer) and has two front ends: ExternalSort sorts Tuples for the
/// SQL engine, IntRowSort sorts SETM's fixed-width int32 rows. A row's
/// budget charge is its serialized size, so both front ends put the same
/// rows in the same runs.
///
/// Run generation and the merge cascade are one serial loop on the calling
/// thread: SETM mines run their sorts inside shard tasks that already sit
/// on the worker pool, and the SQL engine's sorts are single-threaded.
///
/// API misuse is reported through Status in every build mode: Add() after
/// Finish() and a second Finish() fail with an Internal error instead of
/// corrupting the sort. Finish() on a sort that never saw a row succeeds
/// and yields an empty stream. Run read errors (I/O, corruption) surface
/// from Finish() or the stream's Next(), never as a short stream.
///
///     ExternalSort sort(ctx, schema, TupleComparator({0, 1}));
///     for (...) sort.Add(row);
///     auto it = sort.Finish().value();   // sorted stream
class ExternalSort {
 public:
  ExternalSort(ExecContext ctx, Schema schema, TupleComparator cmp);
  ~ExternalSort();

  /// Buffers one row, spilling if the budget fills. Fails with an Internal
  /// status when called after Finish().
  Status Add(Tuple row);

  /// Completes the sort and returns the sorted stream. A second call fails
  /// with an Internal status.
  Result<std::unique_ptr<TupleIterator>> Finish();

  const SortStats& stats() const;

 private:
  std::unique_ptr<sort_internal::RunSort<sort_internal::TupleRows>> sort_;
};

/// The external sort over fixed-width rows of `width` int32 columns, ordered
/// on columns [key_begin, key_end). Each row is charged 4 bytes per column
/// against the budget — the serialized size of the same row as an all-INT32
/// Tuple — and runs hold the same record bytes, so an IntRowSort spills,
/// merges and counts (SortStats, sort metrics) exactly as an ExternalSort
/// of the equivalent Tuples.
///
///     IntRowSort sort(ctx, /*width=*/3, /*key_begin=*/1, /*key_end=*/3);
///     for (...) sort.Add(row);           // row: 3 ints
///     auto cursor = sort.Finish().value();
class IntRowSort {
 public:
  IntRowSort(ExecContext ctx, size_t width, size_t key_begin, size_t key_end);
  ~IntRowSort();

  /// Buffers one row (width ints, copied).
  Status Add(const int32_t* row);

  /// Writes `rows` (width ints each, already in key order) to temp storage
  /// as one run, after spilling any buffered rows: for a caller that forms
  /// its own runs, such as the budgeted C_k count's aggregated entries.
  /// The rows count in stats().rows and the run in spilled_runs; Finish()
  /// merges it with the other runs.
  Status AddSortedRun(const std::vector<int32_t>& rows);

  /// Completes the sort and returns the sorted rows.
  Result<std::unique_ptr<IntRowCursor>> Finish();

  const SortStats& stats() const;

 private:
  std::unique_ptr<sort_internal::RunSort<sort_internal::IntRows>> sort_;
};

/// Volcano operator wrapping ExternalSort: drains `child` on first Next().
class SortIterator : public TupleIterator {
 public:
  SortIterator(ExecContext ctx, std::unique_ptr<TupleIterator> child,
               TupleComparator cmp)
      : ctx_(ctx),
        child_(std::move(child)),
        schema_(child_->schema()),
        cmp_(std::move(cmp)) {}

  Result<bool> Next(Tuple* out) override;
  const Schema& schema() const override { return schema_; }

  /// Valid after the first Next() call.
  const SortStats& stats() const { return stats_; }

 private:
  ExecContext ctx_;
  std::unique_ptr<TupleIterator> child_;
  Schema schema_;
  TupleComparator cmp_;
  std::unique_ptr<TupleIterator> sorted_;
  SortStats stats_;
};

}  // namespace setm

#endif  // SETM_EXEC_EXTERNAL_SORT_H_
