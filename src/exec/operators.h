#ifndef SETM_EXEC_OPERATORS_H_
#define SETM_EXEC_OPERATORS_H_

#include <memory>
#include <vector>

#include "exec/expression.h"
#include "relational/table.h"
#include "relational/tuple.h"

namespace setm {

/// Emits child rows for which the predicate is truthy.
class FilterIterator : public TupleIterator {
 public:
  FilterIterator(std::unique_ptr<TupleIterator> child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Result<bool> Next(Tuple* out) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  std::unique_ptr<TupleIterator> child_;
  ExprPtr predicate_;
};

/// Evaluates one expression per output column.
class ProjectIterator : public TupleIterator {
 public:
  ProjectIterator(std::unique_ptr<TupleIterator> child,
                  std::vector<ExprPtr> exprs, Schema output_schema)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        schema_(std::move(output_schema)) {}

  Result<bool> Next(Tuple* out) override;
  const Schema& schema() const override { return schema_; }

 private:
  std::unique_ptr<TupleIterator> child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
};

/// Merge-scan join of two streams *already sorted* on their key columns —
/// the second primitive of Algorithm SETM. Handles duplicate keys by
/// buffering the right-side group; an optional residual predicate (e.g. the
/// `q.item > p.item_{k-1}` condition of the R'_k query) filters the
/// concatenated row.
class MergeJoinIterator : public TupleIterator {
 public:
  MergeJoinIterator(std::unique_ptr<TupleIterator> left,
                    std::unique_ptr<TupleIterator> right,
                    std::vector<size_t> left_keys,
                    std::vector<size_t> right_keys, ExprPtr residual);

  Result<bool> Next(Tuple* out) override;
  const Schema& schema() const override { return schema_; }

 private:
  /// Compares the current left row's keys to the right group's keys.
  int CompareKeys(const Tuple& l, const Tuple& r) const;
  Status AdvanceLeft();
  Status AdvanceRight();
  /// Positions both sides on the next matching key group.
  Result<bool> FindMatch();
  /// Concatenates current left row with group_[group_pos_].
  void Assemble(Tuple* out) const;

  std::unique_ptr<TupleIterator> left_;
  std::unique_ptr<TupleIterator> right_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  ExprPtr residual_;
  Schema schema_;

  bool primed_ = false;
  Tuple left_row_;
  bool left_valid_ = false;
  Tuple right_row_;  // lookahead past the buffered group
  bool right_valid_ = false;
  std::vector<Tuple> group_;  // buffered right rows with equal keys
  Tuple group_key_row_;       // representative row holding the group's keys
  bool group_active_ = false;
  size_t group_pos_ = 0;
};

/// Naive nested-loop join used by the SQL engine for joins without usable
/// equality keys: materializes the right side, then loops. An optional
/// residual predicate filters the concatenated row.
class NestedLoopJoinIterator : public TupleIterator {
 public:
  NestedLoopJoinIterator(std::unique_ptr<TupleIterator> left,
                         std::unique_ptr<TupleIterator> right,
                         ExprPtr residual);

  Result<bool> Next(Tuple* out) override;
  const Schema& schema() const override { return schema_; }

 private:
  std::unique_ptr<TupleIterator> left_;
  std::unique_ptr<TupleIterator> right_;
  ExprPtr residual_;
  Schema schema_;

  bool primed_ = false;
  std::vector<Tuple> right_rows_;
  Tuple left_row_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
};

/// Streaming GROUP BY over input *sorted on the group columns*, computing
/// COUNT(*) per group — how SETM "generates the support counts efficiently"
/// after the second sort. Output schema: the group columns followed by one
/// INT64 "count" column. Groups with count < `min_count` are dropped
/// (HAVING COUNT(*) >= :minsupport); pass 0 to keep all groups.
class SortedGroupCountIterator : public TupleIterator {
 public:
  SortedGroupCountIterator(std::unique_ptr<TupleIterator> child,
                           std::vector<size_t> group_columns,
                           int64_t min_count);

  Result<bool> Next(Tuple* out) override;
  const Schema& schema() const override { return schema_; }

 private:
  std::unique_ptr<TupleIterator> child_;
  std::vector<size_t> group_columns_;
  int64_t min_count_;
  Schema schema_;

  bool primed_ = false;
  Tuple pending_;  // first row of the next group
  bool pending_valid_ = false;
};

/// Drains `it` into a fresh vector.
Result<std::vector<Tuple>> Collect(TupleIterator* it);

}  // namespace setm

#endif  // SETM_EXEC_OPERATORS_H_
