#ifndef SETM_EXEC_EXTERNAL_SORT_H_
#define SETM_EXEC_EXTERNAL_SORT_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/exec_context.h"
#include "relational/table.h"
#include "relational/tuple.h"

namespace setm {

/// Observability counters for one sort.
struct SortStats {
  uint64_t rows = 0;           ///< rows sorted
  uint64_t runs = 0;           ///< sorted runs created (1 if fully in-memory)
  uint64_t spilled_runs = 0;   ///< runs written to scratch pages
  uint64_t merge_passes = 0;   ///< intermediate merge passes (0 or more)
};

/// Runs one merge reads at once, in the external sort's cascade and in the
/// C_k count's (core/setm_pipeline.h BudgetedCount): more runs cascade
/// merge passes. No run reader holds a pin (the slotted iterator and the
/// packed cursor both copy a page and unpin it), so the fan-in bounds no
/// pool frames, only the linear scan over run heads. It is a constant, so
/// a cascade depends on the run count alone, at every pool size.
inline constexpr size_t kMergeFanIn = 64;

/// Bounded-memory external merge sort of Tuples for the SQL engine — one of
/// the two primitives Algorithm SETM is made of ("basic steps are sorting
/// and merge scan join"). SETM's own mining path sorts no row: its
/// relations arrive in order, and the C_k count merges its own runs.
///
/// Rows are buffered until their serialized size reaches the configured
/// memory budget, then stable-sorted and spilled as a run of slotted
/// TableHeap pages in the context's pool — the database's one pool — so
/// run I/O lands in the database's IoStats ledger and, on a file database,
/// in the main file and never in the write-ahead log. Finish() merges up to
/// kMergeFanIn runs at once, at every pool size, cascading extra merge
/// passes when there are more. The overall sort is stable: equal keys keep
/// arrival order. A run releases its pages when it has been merged (or when
/// the sorted stream is dropped), so a cascade reuses the page ids of the
/// runs it merged and a dead run's dirty pages are never written.
///
/// Run generation and the merge cascade are one serial loop on the calling
/// thread: the SQL engine's sorts are single-threaded.
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
  /// One spilled run: slotted pages that are released when it is dropped.
  class Run;

  ExternalSort(ExecContext ctx, Schema schema, TupleComparator cmp);
  ~ExternalSort();

  /// Buffers one row, spilling if the budget fills. Fails with an Internal
  /// status when called after Finish().
  Status Add(Tuple row);

  /// Completes the sort and returns the sorted stream. A second call fails
  /// with an Internal status.
  Result<std::unique_ptr<TupleIterator>> Finish();

  const SortStats& stats() const { return stats_; }

 private:
  /// Sorts the buffer and writes it as the next run.
  Status SpillRun();

  ExecContext ctx_;
  Schema schema_;
  TupleComparator cmp_;
  std::vector<Tuple> buffer_;
  size_t buffer_bytes_ = 0;
  std::vector<std::unique_ptr<Run>> runs_;
  SortStats stats_;
  bool finished_ = false;
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
