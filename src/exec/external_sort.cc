#include "exec/external_sort.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/table_heap.h"

namespace setm {

/// A TableHeap in the context's pool that releases its pages
/// (BufferPool::ReleasePage) when the run is dropped, after the merge that
/// reads it.
class ExternalSort::Run {
 public:
  static Result<std::unique_ptr<Run>> Create(const ExecContext& ctx) {
    std::unique_ptr<Run> run(new Run(ctx.pool));
    auto heap_or = TableHeap::Create(
        ctx.pool, [pages = &run->pages_,
                   tag = ctx.unlogged_page_tagger](PageId id) {
          pages->push_back(id);
          if (tag) tag(id);
        });
    if (!heap_or.ok()) return heap_or.status();
    run->heap_.emplace(std::move(heap_or).value());
    return run;
  }

  ~Run() {
    for (PageId id : pages_) {
      Status released = pool_->ReleasePage(id);
      if (!released.ok()) {
        SETM_LOG(kError) << "sort run page not released: "
                         << released.ToString();
      }
    }
  }

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  TableHeap& heap() { return *heap_; }

 private:
  explicit Run(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool_;
  std::vector<PageId> pages_;  ///< every page of the chain
  std::optional<TableHeap> heap_;
};

namespace {

using RunPtr = std::unique_ptr<ExternalSort::Run>;

/// Folds one finished sort's counters into the process-wide registry.
void FlushSortMetrics(const SortStats& stats) {
  static obs::Counter* rows = obs::MetricsRegistry::Global()->GetCounter(
      "setm_sort_rows_total", "Rows pushed through external sorts");
  static obs::Counter* runs = obs::MetricsRegistry::Global()->GetCounter(
      "setm_sort_runs_total", "Sorted runs created by external sorts");
  static obs::Counter* spilled = obs::MetricsRegistry::Global()->GetCounter(
      "setm_sort_spilled_runs_total",
      "Runs that overflowed the sort budget and spilled to scratch pages");
  static obs::Counter* passes = obs::MetricsRegistry::Global()->GetCounter(
      "setm_sort_merge_passes_total",
      "Cascaded merge passes run by external sorts");
  rows->Increment(stats.rows);
  runs->Increment(stats.runs);
  spilled->Increment(stats.spilled_runs);
  passes->Increment(stats.merge_passes);
}

/// Serializes `row` as the next record of `run`.
Status WriteRow(const Schema& schema, const Tuple& row, ExternalSort::Run* run,
                std::string* record) {
  record->clear();
  row.SerializeTo(schema, record);
  return run->heap().Insert(*record);
}

/// Streams one run's Tuples.
class RunReader {
 public:
  RunReader(const Schema* schema, ExternalSort::Run* run)
      : it_(run->heap().Begin()), schema_(schema) {}

  Result<bool> Next() {
    auto more = it_.Next();
    if (!more.ok() || !more.value()) return more;
    auto t = Tuple::Deserialize(*schema_, it_.record());
    if (!t.ok()) return t.status();
    row = std::move(t).value();
    return true;
  }

  Tuple row;

 private:
  TableHeap::Iterator it_;
  const Schema* schema_;
};

/// K-way merge over runs. Stability: ties go to the lower run index, and
/// runs are created in arrival order, so equal keys keep their original
/// order. The run holding the current row advances only on the next
/// Next(), so the row stays valid until then.
class RunMerge {
 public:
  RunMerge(const Schema* schema, const TupleComparator* cmp,
           std::vector<RunPtr> runs)
      : cmp_(cmp), runs_(std::move(runs)), live_(runs_.size(), false) {
    readers_.reserve(runs_.size());
    for (const RunPtr& run : runs_) readers_.emplace_back(schema, run.get());
  }

  /// Reads every run's first row.
  Status Prime() {
    for (size_t i = 0; i < readers_.size(); ++i) {
      SETM_RETURN_IF_ERROR(Advance(i));
    }
    return Status::OK();
  }

  /// Moves to the smallest remaining row; false when every run is drained.
  Result<bool> Next() {
    if (current_ >= 0) SETM_RETURN_IF_ERROR(Advance(current_));
    // Linear scan over run heads: fan-in is <= kMergeFanIn, so a loser
    // tree is not needed.
    current_ = -1;
    for (size_t i = 0; i < readers_.size(); ++i) {
      if (!live_[i]) continue;
      if (current_ < 0 ||
          cmp_->Compare(readers_[i].row, readers_[current_].row) < 0) {
        current_ = static_cast<int>(i);
      }
    }
    return current_ >= 0;
  }

  /// The current row.
  Tuple& row() { return readers_[current_].row; }

 private:
  Status Advance(size_t i) {
    auto more = readers_[i].Next();
    if (!more.ok()) return more.status();
    live_[i] = more.value();
    return Status::OK();
  }

  const TupleComparator* cmp_;
  std::vector<RunPtr> runs_;
  std::vector<RunReader> readers_;
  std::vector<bool> live_;
  int current_ = -1;
};

/// Merges one group of runs into a single fresh run — the body of one
/// cascaded-merge step.
Result<RunPtr> MergeRunGroup(const ExecContext& ctx, const Schema& schema,
                             const TupleComparator& cmp,
                             std::vector<RunPtr> group) {
  RunMerge merge(&schema, &cmp, std::move(group));
  SETM_RETURN_IF_ERROR(merge.Prime());
  auto out_or = ExternalSort::Run::Create(ctx);
  if (!out_or.ok()) return out_or.status();
  RunPtr out = std::move(out_or).value();
  std::string record;
  while (true) {
    auto more = merge.Next();
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    SETM_RETURN_IF_ERROR(WriteRow(schema, merge.row(), out.get(), &record));
  }
  return out;
}

/// Iterator over an owned, already-sorted vector (in-memory fast path).
class VectorIterator : public TupleIterator {
 public:
  VectorIterator(std::vector<Tuple> rows, Schema schema)
      : rows_(std::move(rows)), schema_(std::move(schema)) {}

  Result<bool> Next(Tuple* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = std::move(rows_[pos_++]);
    return true;
  }
  const Schema& schema() const override { return schema_; }

 private:
  std::vector<Tuple> rows_;
  Schema schema_;
  size_t pos_ = 0;
};

/// The streaming final merge of spilled runs.
class MergeIterator : public TupleIterator {
 public:
  MergeIterator(Schema schema, TupleComparator cmp, std::vector<RunPtr> runs)
      : schema_(std::move(schema)),
        cmp_(std::move(cmp)),
        merge_(&schema_, &cmp_, std::move(runs)) {}

  Status Prime() { return merge_.Prime(); }

  Result<bool> Next(Tuple* out) override {
    auto more = merge_.Next();
    if (!more.ok() || !more.value()) return more;
    *out = std::move(merge_.row());
    return true;
  }
  const Schema& schema() const override { return schema_; }

 private:
  Schema schema_;
  TupleComparator cmp_;
  RunMerge merge_;
};

}  // namespace

ExternalSort::ExternalSort(ExecContext ctx, Schema schema, TupleComparator cmp)
    : ctx_(std::move(ctx)), schema_(std::move(schema)), cmp_(std::move(cmp)) {}

ExternalSort::~ExternalSort() = default;

Status ExternalSort::Add(Tuple row) {
  if (finished_) {
    return Status::Internal("ExternalSort::Add() called after Finish()");
  }
  ++stats_.rows;
  buffer_bytes_ += row.SerializedSize(schema_);
  buffer_.push_back(std::move(row));
  if (buffer_bytes_ >= ctx_.sort_memory_bytes) {
    SETM_RETURN_IF_ERROR(SpillRun());
  }
  return Status::OK();
}

Status ExternalSort::SpillRun() {
  if (buffer_.empty()) return Status::OK();
  std::stable_sort(buffer_.begin(), buffer_.end(), cmp_);
  ++stats_.runs;
  ++stats_.spilled_runs;
  auto run_or = Run::Create(ctx_);
  if (!run_or.ok()) return run_or.status();
  runs_.push_back(std::move(run_or).value());
  std::string record;
  for (const Tuple& row : buffer_) {
    SETM_RETURN_IF_ERROR(WriteRow(schema_, row, runs_.back().get(), &record));
  }
  buffer_.clear();
  buffer_bytes_ = 0;
  return Status::OK();
}

Result<std::unique_ptr<TupleIterator>> ExternalSort::Finish() {
  if (finished_) {
    return Status::Internal("ExternalSort::Finish() called twice");
  }
  finished_ = true;

  if (runs_.empty()) {
    // Fully in-memory (possibly zero rows — an empty stream, not an error).
    std::stable_sort(buffer_.begin(), buffer_.end(), cmp_);
    if (!buffer_.empty()) stats_.runs = 1;
    FlushSortMetrics(stats_);
    return std::unique_ptr<TupleIterator>(
        std::make_unique<VectorIterator>(std::move(buffer_), schema_));
  }

  SETM_RETURN_IF_ERROR(SpillRun());

  // Cascade merge passes while the run count exceeds the fan-in. Each pass
  // merges consecutive groups in run order into one run per group, so the
  // run-index stability tie-break holds across passes.
  while (runs_.size() > kMergeFanIn) {
    ++stats_.merge_passes;
    std::vector<RunPtr> next;
    for (size_t i = 0; i < runs_.size(); i += kMergeFanIn) {
      const size_t take = std::min(kMergeFanIn, runs_.size() - i);
      if (take == 1) {
        next.push_back(std::move(runs_[i]));
        continue;
      }
      std::vector<RunPtr> group(
          std::make_move_iterator(runs_.begin() + i),
          std::make_move_iterator(runs_.begin() + i + take));
      auto merged = MergeRunGroup(ctx_, schema_, cmp_, std::move(group));
      if (!merged.ok()) return merged.status();
      next.push_back(std::move(merged).value());
    }
    runs_ = std::move(next);
  }

  FlushSortMetrics(stats_);
  auto merge =
      std::make_unique<MergeIterator>(schema_, cmp_, std::move(runs_));
  SETM_RETURN_IF_ERROR(merge->Prime());
  return std::unique_ptr<TupleIterator>(std::move(merge));
}

Result<bool> SortIterator::Next(Tuple* out) {
  if (!sorted_) {
    ExternalSort sort(ctx_, schema_, cmp_);
    Tuple row;
    while (true) {
      auto more = child_->Next(&row);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      SETM_RETURN_IF_ERROR(sort.Add(std::move(row)));
    }
    auto sorted_or = sort.Finish();
    if (!sorted_or.ok()) return sorted_or.status();
    sorted_ = std::move(sorted_or).value();
    stats_ = sort.stats();
  }
  return sorted_->Next(out);
}

}  // namespace setm
