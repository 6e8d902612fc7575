#include "exec/operators.h"

#include "common/logging.h"

namespace setm {

// ---------------------------------------------------------------------------
// FilterIterator
// ---------------------------------------------------------------------------

Result<bool> FilterIterator::Next(Tuple* out) {
  while (true) {
    auto more = child_->Next(out);
    if (!more.ok()) return more.status();
    if (!more.value()) return false;
    auto v = predicate_->Eval(*out);
    if (!v.ok()) return v.status();
    if (ValueIsTrue(v.value())) return true;
  }
}

// ---------------------------------------------------------------------------
// ProjectIterator
// ---------------------------------------------------------------------------

Result<bool> ProjectIterator::Next(Tuple* out) {
  Tuple in;
  auto more = child_->Next(&in);
  if (!more.ok()) return more.status();
  if (!more.value()) return false;
  std::vector<Value> values;
  values.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    auto v = e->Eval(in);
    if (!v.ok()) return v.status();
    values.push_back(std::move(v).value());
  }
  *out = Tuple(std::move(values));
  return true;
}

// ---------------------------------------------------------------------------
// MergeJoinIterator
// ---------------------------------------------------------------------------

MergeJoinIterator::MergeJoinIterator(std::unique_ptr<TupleIterator> left,
                                     std::unique_ptr<TupleIterator> right,
                                     std::vector<size_t> left_keys,
                                     std::vector<size_t> right_keys,
                                     ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)) {
  SETM_CHECK(left_keys_.size() == right_keys_.size());
  for (const Column& c : left_->schema().columns()) schema_.AddColumn(c);
  for (const Column& c : right_->schema().columns()) schema_.AddColumn(c);
}

int MergeJoinIterator::CompareKeys(const Tuple& l, const Tuple& r) const {
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    int c = l.value(left_keys_[i]).Compare(r.value(right_keys_[i]));
    if (c != 0) return c;
  }
  return 0;
}

Status MergeJoinIterator::AdvanceLeft() {
  auto more = left_->Next(&left_row_);
  if (!more.ok()) return more.status();
  left_valid_ = more.value();
  return Status::OK();
}

Status MergeJoinIterator::AdvanceRight() {
  auto more = right_->Next(&right_row_);
  if (!more.ok()) return more.status();
  right_valid_ = more.value();
  return Status::OK();
}

Result<bool> MergeJoinIterator::FindMatch() {
  while (left_valid_ && right_valid_) {
    const int c = CompareKeys(left_row_, right_row_);
    if (c < 0) {
      SETM_RETURN_IF_ERROR(AdvanceLeft());
    } else if (c > 0) {
      SETM_RETURN_IF_ERROR(AdvanceRight());
    } else {
      // Buffer the full right-side group with this key.
      group_.clear();
      group_key_row_ = right_row_;
      do {
        group_.push_back(right_row_);
        SETM_RETURN_IF_ERROR(AdvanceRight());
      } while (right_valid_ &&
               CompareKeys(left_row_, right_row_) == 0);
      group_active_ = true;
      group_pos_ = 0;
      return true;
    }
  }
  return false;
}

void MergeJoinIterator::Assemble(Tuple* out) const {
  std::vector<Value> values;
  values.reserve(left_row_.NumValues() + group_[group_pos_].NumValues());
  for (const Value& v : left_row_.values()) values.push_back(v);
  for (const Value& v : group_[group_pos_].values()) values.push_back(v);
  *out = Tuple(std::move(values));
}

Result<bool> MergeJoinIterator::Next(Tuple* out) {
  if (!primed_) {
    primed_ = true;
    SETM_RETURN_IF_ERROR(AdvanceLeft());
    SETM_RETURN_IF_ERROR(AdvanceRight());
  }
  while (true) {
    if (!group_active_) {
      auto matched = FindMatch();
      if (!matched.ok()) return matched.status();
      if (!matched.value()) return false;
    }
    // Emit combinations of the current left row with the buffered group.
    while (group_pos_ < group_.size()) {
      Assemble(out);
      ++group_pos_;
      if (residual_ != nullptr) {
        auto v = residual_->Eval(*out);
        if (!v.ok()) return v.status();
        if (!ValueIsTrue(v.value())) continue;
      }
      return true;
    }
    // Group exhausted for this left row; move to the next left row and
    // re-test against the same group (many left rows share the key).
    SETM_RETURN_IF_ERROR(AdvanceLeft());
    if (left_valid_ && CompareKeys(left_row_, group_key_row_) == 0) {
      group_pos_ = 0;
      continue;
    }
    group_active_ = false;
  }
}

// ---------------------------------------------------------------------------
// NestedLoopJoinIterator
// ---------------------------------------------------------------------------

NestedLoopJoinIterator::NestedLoopJoinIterator(
    std::unique_ptr<TupleIterator> left, std::unique_ptr<TupleIterator> right,
    ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      residual_(std::move(residual)) {
  for (const Column& c : left_->schema().columns()) schema_.AddColumn(c);
  for (const Column& c : right_->schema().columns()) schema_.AddColumn(c);
}

Result<bool> NestedLoopJoinIterator::Next(Tuple* out) {
  if (!primed_) {
    primed_ = true;
    auto rows = Collect(right_.get());
    if (!rows.ok()) return rows.status();
    right_rows_ = std::move(rows).value();
    auto more = left_->Next(&left_row_);
    if (!more.ok()) return more.status();
    left_valid_ = more.value();
    right_pos_ = 0;
  }
  while (left_valid_) {
    while (right_pos_ < right_rows_.size()) {
      const Tuple& r = right_rows_[right_pos_++];
      std::vector<Value> values;
      values.reserve(left_row_.NumValues() + r.NumValues());
      for (const Value& v : left_row_.values()) values.push_back(v);
      for (const Value& v : r.values()) values.push_back(v);
      *out = Tuple(std::move(values));
      if (residual_ != nullptr) {
        auto v = residual_->Eval(*out);
        if (!v.ok()) return v.status();
        if (!ValueIsTrue(v.value())) continue;
      }
      return true;
    }
    auto more = left_->Next(&left_row_);
    if (!more.ok()) return more.status();
    left_valid_ = more.value();
    right_pos_ = 0;
  }
  return false;
}

// ---------------------------------------------------------------------------
// SortedGroupCountIterator
// ---------------------------------------------------------------------------

SortedGroupCountIterator::SortedGroupCountIterator(
    std::unique_ptr<TupleIterator> child, std::vector<size_t> group_columns,
    int64_t min_count)
    : child_(std::move(child)),
      group_columns_(std::move(group_columns)),
      min_count_(min_count) {
  for (size_t c : group_columns_) {
    schema_.AddColumn(child_->schema().column(c));
  }
  schema_.AddColumn(Column{"count", ValueType::kInt64});
}

Result<bool> SortedGroupCountIterator::Next(Tuple* out) {
  if (!primed_) {
    primed_ = true;
    auto more = child_->Next(&pending_);
    if (!more.ok()) return more.status();
    pending_valid_ = more.value();
  }
  while (pending_valid_) {
    // Start a group at pending_.
    Tuple head = pending_;
    int64_t count = 0;
    while (pending_valid_) {
      bool same = true;
      for (size_t c : group_columns_) {
        if (head.value(c).Compare(pending_.value(c)) != 0) {
          same = false;
          break;
        }
      }
      if (!same) break;
      ++count;
      auto more = child_->Next(&pending_);
      if (!more.ok()) return more.status();
      pending_valid_ = more.value();
    }
    if (count >= min_count_) {
      std::vector<Value> values;
      values.reserve(group_columns_.size() + 1);
      for (size_t c : group_columns_) values.push_back(head.value(c));
      values.push_back(Value::Int64(count));
      *out = Tuple(std::move(values));
      return true;
    }
    // Group failed the HAVING clause; continue with the next group.
  }
  return false;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

Result<std::vector<Tuple>> Collect(TupleIterator* it) {
  std::vector<Tuple> rows;
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) return rows;
    rows.push_back(row);
  }
}

}  // namespace setm
