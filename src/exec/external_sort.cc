#include "exec/external_sort.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/table_heap.h"

namespace setm {

namespace {

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

/// Runs merged at once; more runs cascade merge passes. No run reader
/// holds a pin (the slotted iterator and the packed cursor both copy a page
/// and unpin it), so the fan-in bounds no pool frames, only the linear scan
/// over run heads in RunMerge::Next. It is a constant, so the cascade
/// depends on the run count alone, at every pool size, and both front ends
/// report identical SortStats.
constexpr size_t kMaxFanIn = 64;

}  // namespace

namespace sort_internal {

// The row kinds. What the one algorithm below (RunSort, RunMerge,
// MergeRunGroup) asks of a row kind `Rows`:
//   Buffer, Input                  rows awaiting a run; what Add() takes
//   Run                            one spilled run (movable); dropping it
//                                  releases its pages to the pool
//   size_t Push(Buffer*, Input)    buffers a row, returns its budget charge
//   void Sort(Buffer*)             stable sort on the key
//   Result<Run> NewRun(const ExecContext&)   an empty run in ctx.pool, its
//                                            pages tagged by the ctx's tagger
//   Status Spill(const Buffer&, Run*)        writes a sorted buffer as a run
//   Reader(const Rows&, const Run&)          streams one run: Next(), row
//   int Compare(const Reader&, const Reader&) orders two readers' rows
//   Writer(const Rows&, Run*)                Add(const Reader&), Finish()
// A run can be read once Spill, or the Writer's Finish, has returned.

/// One spilled Tuple run: a TableHeap in the context's pool that releases
/// its pages (BufferPool::ReleasePage) when the run is dropped, after the
/// merge that reads it.
class TupleRun {
 public:
  static Result<std::unique_ptr<TupleRun>> Create(const ExecContext& ctx) {
    std::unique_ptr<TupleRun> run(new TupleRun(ctx.pool));
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

  ~TupleRun() {
    for (PageId id : pages_) {
      Status released = pool_->ReleasePage(id);
      if (!released.ok()) {
        SETM_LOG(kError) << "sort run page not released: "
                         << released.ToString();
      }
    }
  }

  TupleRun(const TupleRun&) = delete;
  TupleRun& operator=(const TupleRun&) = delete;

  TableHeap& heap() { return *heap_; }

 private:
  explicit TupleRun(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool_;
  std::vector<PageId> pages_;  ///< every page of the chain
  std::optional<TableHeap> heap_;
};

/// Tuples of any schema, serialized into slotted TableHeap runs: the SQL
/// engine's rows.
struct TupleRows {
  using Buffer = std::vector<Tuple>;
  using Input = Tuple;
  using Run = std::unique_ptr<TupleRun>;

  Schema schema;
  TupleComparator cmp;

  size_t Push(Buffer* buffer, Tuple row) const {
    const size_t bytes = row.SerializedSize(schema);
    buffer->push_back(std::move(row));
    return bytes;
  }

  void Sort(Buffer* buffer) const {
    std::stable_sort(buffer->begin(), buffer->end(), cmp);
  }

  Result<Run> NewRun(const ExecContext& ctx) const {
    return TupleRun::Create(ctx);
  }

  Status Spill(const Buffer& buffer, Run* run) const {
    Writer writer(*this, run);
    for (const Tuple& row : buffer) SETM_RETURN_IF_ERROR(writer.Add(row));
    return Status::OK();
  }

  class Reader {
   public:
    Reader(const TupleRows& rows, const Run& run)
        : it_(run->heap().Begin()), schema_(&rows.schema) {}

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

  int Compare(const Reader& a, const Reader& b) const {
    return cmp.Compare(a.row, b.row);
  }

  class Writer {
   public:
    Writer(const TupleRows& rows, Run* run)
        : schema_(&rows.schema), run_(run) {}

    Status Add(const Reader& reader) { return Add(reader.row); }
    Status Add(const Tuple& row) {
      record_.clear();
      row.SerializeTo(*schema_, &record_);
      return (*run_)->heap().Insert(record_);
    }
    Status Finish() { return Status::OK(); }

   private:
    const Schema* schema_;
    Run* run_;
    std::string record_;
  };
};

/// Fixed-width int32 rows stored back to back: SETM's relations. A run is
/// a sealed IntRelation in the context's pool, so it has R_k's packed pages:
/// each page written once, and read back with its header checked.
struct IntRows {
  using Buffer = std::vector<int32_t>;
  using Input = const int32_t*;
  using Run = std::unique_ptr<IntRelation>;

  size_t width;
  size_t key_begin;
  size_t key_end;

  size_t Push(Buffer* buffer, const int32_t* row) const {
    buffer->insert(buffer->end(), row, row + width);
    return width * sizeof(int32_t);
  }

  int CompareRows(const int32_t* a, const int32_t* b) const {
    for (size_t c = key_begin; c < key_end; ++c) {
      if (a[c] != b[c]) return a[c] < b[c] ? -1 : 1;
    }
    return 0;
  }

  void Sort(Buffer* buffer) const {
    // Stable-sort row indices on the key, then gather the rows.
    const size_t n = buffer->size() / width;
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    const int32_t* data = buffer->data();
    std::stable_sort(order.begin(), order.end(),
                     [this, data](size_t x, size_t y) {
                       return CompareRows(data + x * width,
                                          data + y * width) < 0;
                     });
    Buffer sorted(buffer->size());
    for (size_t i = 0; i < n; ++i) {
      std::copy_n(data + order[i] * width, width, sorted.data() + i * width);
    }
    buffer->swap(sorted);
  }

  Result<Run> NewRun(const ExecContext& ctx) const {
    return IntRelation::CreateInPool(ctx.pool, width,
                                     ctx.unlogged_page_tagger);
  }

  Status Spill(const Buffer& buffer, Run* run) const {
    SETM_RETURN_IF_ERROR((*run)->Append(buffer.data(), buffer.size() / width));
    return (*run)->Finish();
  }

  class Reader {
   public:
    Reader(const IntRows&, const Run& run) : cursor_(run->Scan()) {}

    Result<bool> Next() { return cursor_->Next(&row); }

    const int32_t* row = nullptr;

   private:
    std::unique_ptr<IntRowCursor> cursor_;
  };

  int Compare(const Reader& a, const Reader& b) const {
    return CompareRows(a.row, b.row);
  }

  class Writer {
   public:
    Writer(const IntRows&, Run* run) : run_(run) {}

    Status Add(const Reader& reader) { return (*run_)->Append(reader.row, 1); }
    Status Finish() { return (*run_)->Finish(); }

   private:
    Run* run_;
  };
};

/// K-way merge over runs. Stability: ties go to the lower run index, and
/// runs are created in arrival order, so equal keys keep their original
/// order. The run holding the current row advances only on the next
/// Next(), so the row stays valid until then.
template <typename Rows>
class RunMerge {
 public:
  using Run = typename Rows::Run;

  RunMerge(const Rows* rows, std::vector<Run> runs)
      : rows_(rows), runs_(std::move(runs)), live_(runs_.size(), false) {
    readers_.reserve(runs_.size());
    for (const Run& run : runs_) readers_.emplace_back(*rows_, run);
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
    // Linear scan over run heads: fan-in is <= 64, so a loser tree is not
    // needed.
    current_ = -1;
    for (size_t i = 0; i < readers_.size(); ++i) {
      if (!live_[i]) continue;
      if (current_ < 0 || rows_->Compare(readers_[i], readers_[current_]) < 0) {
        current_ = static_cast<int>(i);
      }
    }
    return current_ >= 0;
  }

  /// The reader positioned on the current row.
  typename Rows::Reader& current() { return readers_[current_]; }

 private:
  Status Advance(size_t i) {
    auto more = readers_[i].Next();
    if (!more.ok()) return more.status();
    live_[i] = more.value();
    return Status::OK();
  }

  const Rows* rows_;
  std::vector<Run> runs_;
  std::vector<typename Rows::Reader> readers_;
  std::vector<bool> live_;
  int current_ = -1;
};

/// Merges one group of runs into a single fresh run — the body of one
/// cascaded-merge step.
template <typename Rows>
Result<typename Rows::Run> MergeRunGroup(
    const ExecContext& ctx, const Rows& rows,
    std::vector<typename Rows::Run> group) {
  RunMerge<Rows> merge(&rows, std::move(group));
  SETM_RETURN_IF_ERROR(merge.Prime());
  auto out_or = rows.NewRun(ctx);
  if (!out_or.ok()) return out_or.status();
  typename Rows::Run out = std::move(out_or).value();
  typename Rows::Writer writer(rows, &out);
  while (true) {
    auto more = merge.Next();
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    SETM_RETURN_IF_ERROR(writer.Add(merge.current()));
  }
  SETM_RETURN_IF_ERROR(writer.Finish());
  return out;
}

/// Run generation and the merge cascade, shared by both front ends.
template <typename Rows>
class RunSort {
 public:
  using Buffer = typename Rows::Buffer;
  using Run = typename Rows::Run;

  RunSort(ExecContext ctx, Rows rows) : ctx_(ctx), rows_(std::move(rows)) {}

  Status Add(typename Rows::Input row) {
    if (finished_) {
      return Status::Internal("ExternalSort::Add() called after Finish()");
    }
    ++stats_.rows;
    buffer_bytes_ += rows_.Push(&buffer_, std::move(row));
    if (buffer_bytes_ >= ctx_.sort_memory_bytes) {
      SETM_RETURN_IF_ERROR(SpillRun());
    }
    return Status::OK();
  }

  /// Writes `sorted` (rows already in key order, counted in stats().rows as
  /// `n`) as the next spilled run, after any buffered rows.
  Status AddSortedRun(const Buffer& sorted, size_t n) {
    if (finished_) {
      return Status::Internal("ExternalSort::Add() called after Finish()");
    }
    if (n == 0) return Status::OK();
    SETM_RETURN_IF_ERROR(SpillRun());
    stats_.rows += n;
    return WriteRun(sorted);
  }

  /// Ends intake. Rows that never spilled come back sorted in `*memory`;
  /// otherwise `*runs` holds the sorted runs, cascaded down to at most the
  /// merge fan-in, for the caller's final streaming merge.
  Status Finish(Buffer* memory, std::vector<Run>* runs);

  const Rows& rows() const { return rows_; }
  const SortStats& stats() const { return stats_; }

 private:
  /// Sorts the buffer and writes it as the next run.
  Status SpillRun();
  /// Writes sorted rows as the next run.
  Status WriteRun(const Buffer& sorted);

  ExecContext ctx_;
  Rows rows_;
  Buffer buffer_;
  size_t buffer_bytes_ = 0;
  std::vector<Run> runs_;
  SortStats stats_;
  bool finished_ = false;
};

template <typename Rows>
Status RunSort<Rows>::SpillRun() {
  if (buffer_.empty()) return Status::OK();
  rows_.Sort(&buffer_);
  SETM_RETURN_IF_ERROR(WriteRun(buffer_));
  buffer_.clear();
  buffer_bytes_ = 0;
  return Status::OK();
}

template <typename Rows>
Status RunSort<Rows>::WriteRun(const Buffer& sorted) {
  ++stats_.runs;
  ++stats_.spilled_runs;
  auto run_or = rows_.NewRun(ctx_);
  if (!run_or.ok()) return run_or.status();
  runs_.push_back(std::move(run_or).value());
  return rows_.Spill(sorted, &runs_.back());
}

template <typename Rows>
Status RunSort<Rows>::Finish(Buffer* memory, std::vector<Run>* runs) {
  if (finished_) {
    return Status::Internal("ExternalSort::Finish() called twice");
  }
  finished_ = true;

  if (runs_.empty()) {
    // Fully in-memory (possibly zero rows — an empty stream, not an error).
    rows_.Sort(&buffer_);
    if (!buffer_.empty()) stats_.runs = 1;
    FlushSortMetrics(stats_);
    *memory = std::move(buffer_);
    return Status::OK();
  }

  SETM_RETURN_IF_ERROR(SpillRun());

  // Cascade merge passes while the run count exceeds the fan-in. Each pass
  // merges consecutive groups in run order into one run per group, so the
  // run-index stability tie-break holds across passes.
  while (runs_.size() > kMaxFanIn) {
    ++stats_.merge_passes;
    std::vector<Run> next;
    for (size_t i = 0; i < runs_.size(); i += kMaxFanIn) {
      const size_t take = std::min(kMaxFanIn, runs_.size() - i);
      if (take == 1) {
        next.push_back(std::move(runs_[i]));
        continue;
      }
      std::vector<Run> group(
          std::make_move_iterator(runs_.begin() + i),
          std::make_move_iterator(runs_.begin() + i + take));
      auto merged = MergeRunGroup(ctx_, rows_, std::move(group));
      if (!merged.ok()) return merged.status();
      next.push_back(std::move(merged).value());
    }
    runs_ = std::move(next);
  }

  FlushSortMetrics(stats_);
  *runs = std::move(runs_);
  return Status::OK();
}

}  // namespace sort_internal

namespace {

using sort_internal::IntRows;
using sort_internal::RunMerge;
using sort_internal::TupleRows;

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

/// The streaming final merge of spilled Tuple runs.
class TupleMergeIterator : public TupleIterator {
 public:
  TupleMergeIterator(TupleRows rows, std::vector<TupleRows::Run> runs)
      : rows_(std::move(rows)), merge_(&rows_, std::move(runs)) {}

  Status Prime() { return merge_.Prime(); }

  Result<bool> Next(Tuple* out) override {
    auto more = merge_.Next();
    if (!more.ok() || !more.value()) return more;
    *out = std::move(merge_.current().row);
    return true;
  }
  const Schema& schema() const override { return rows_.schema; }

 private:
  TupleRows rows_;
  RunMerge<TupleRows> merge_;
};

/// The streaming final merge of spilled int runs.
class IntMergeCursor : public IntRowCursor {
 public:
  IntMergeCursor(IntRows rows, std::vector<IntRows::Run> runs)
      : rows_(rows), merge_(&rows_, std::move(runs)) {}

  Status Prime() { return merge_.Prime(); }

  Result<bool> Next(const int32_t** row) override {
    auto more = merge_.Next();
    if (!more.ok() || !more.value()) return more;
    *row = merge_.current().row;
    return true;
  }

 private:
  IntRows rows_;
  RunMerge<IntRows> merge_;
};

}  // namespace

ExternalSort::ExternalSort(ExecContext ctx, Schema schema, TupleComparator cmp)
    : sort_(std::make_unique<sort_internal::RunSort<TupleRows>>(
          ctx, TupleRows{std::move(schema), std::move(cmp)})) {}

ExternalSort::~ExternalSort() = default;

Status ExternalSort::Add(Tuple row) { return sort_->Add(std::move(row)); }

const SortStats& ExternalSort::stats() const { return sort_->stats(); }

Result<std::unique_ptr<TupleIterator>> ExternalSort::Finish() {
  std::vector<Tuple> memory;
  std::vector<TupleRows::Run> runs;
  SETM_RETURN_IF_ERROR(sort_->Finish(&memory, &runs));
  if (runs.empty()) {
    return std::unique_ptr<TupleIterator>(
        std::make_unique<VectorIterator>(std::move(memory),
                                         sort_->rows().schema));
  }
  auto merge =
      std::make_unique<TupleMergeIterator>(sort_->rows(), std::move(runs));
  SETM_RETURN_IF_ERROR(merge->Prime());
  return std::unique_ptr<TupleIterator>(std::move(merge));
}

IntRowSort::IntRowSort(ExecContext ctx, size_t width, size_t key_begin,
                       size_t key_end)
    : sort_(std::make_unique<sort_internal::RunSort<IntRows>>(
          ctx, IntRows{width, key_begin, key_end})) {
  SETM_CHECK(key_begin <= key_end && key_end <= width);
}

IntRowSort::~IntRowSort() = default;

Status IntRowSort::Add(const int32_t* row) { return sort_->Add(row); }

Status IntRowSort::AddSortedRun(const std::vector<int32_t>& rows) {
  const size_t width = sort_->rows().width;
  SETM_CHECK(rows.size() % width == 0);
  return sort_->AddSortedRun(rows, rows.size() / width);
}

const SortStats& IntRowSort::stats() const { return sort_->stats(); }

Result<std::unique_ptr<IntRowCursor>> IntRowSort::Finish() {
  std::vector<int32_t> memory;
  std::vector<IntRows::Run> runs;
  SETM_RETURN_IF_ERROR(sort_->Finish(&memory, &runs));
  const IntRows& rows = sort_->rows();
  if (runs.empty()) {
    return std::unique_ptr<IntRowCursor>(
        std::make_unique<IntArrayCursor>(std::move(memory), rows.width));
  }
  auto merge = std::make_unique<IntMergeCursor>(rows, std::move(runs));
  SETM_RETURN_IF_ERROR(merge->Prime());
  return std::unique_ptr<IntRowCursor>(std::move(merge));
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
