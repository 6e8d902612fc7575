#include "exec/hash_operators.h"

#include <string>
#include <utility>

#include "common/logging.h"

namespace setm {

namespace {

/// Serializes a value into a hash key, normalizing integer widths so that
/// INT32 7 and INT64 7 land in the same bucket (consistent with
/// Value::Compare and Value::Hash).
void AppendKey(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kInt32:
    case ValueType::kInt64: {
      out->push_back('i');
      const int64_t x = v.NumericInt();
      out->append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
    case ValueType::kDouble: {
      out->push_back('d');
      const double x = v.AsDouble();
      out->append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
    case ValueType::kString: {
      out->push_back('s');
      const std::string& s = v.AsString();
      const uint32_t n = static_cast<uint32_t>(s.size());
      out->append(reinterpret_cast<const char*>(&n), sizeof(n));
      out->append(s);
      break;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// HashJoinIterator
// ---------------------------------------------------------------------------

HashJoinIterator::HashJoinIterator(std::unique_ptr<TupleIterator> left,
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

std::string HashJoinIterator::KeyOf(const Tuple& row,
                                    const std::vector<size_t>& cols) const {
  std::string key;
  for (size_t c : cols) AppendKey(row.value(c), &key);
  return key;
}

Status HashJoinIterator::Build() {
  built_ = true;
  Tuple row;
  while (true) {
    auto more = right_->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    table_[KeyOf(row, right_keys_)].push_back(row);
  }
  auto first = left_->Next(&left_row_);
  if (!first.ok()) return first.status();
  left_valid_ = first.value();
  if (left_valid_) {
    auto it = table_.find(KeyOf(left_row_, left_keys_));
    matches_ = it == table_.end() ? nullptr : &it->second;
    match_pos_ = 0;
  }
  return Status::OK();
}

Result<bool> HashJoinIterator::Next(Tuple* out) {
  if (!built_) SETM_RETURN_IF_ERROR(Build());
  while (left_valid_) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      const Tuple& r = (*matches_)[match_pos_++];
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
    if (left_valid_) {
      auto it = table_.find(KeyOf(left_row_, left_keys_));
      matches_ = it == table_.end() ? nullptr : &it->second;
      match_pos_ = 0;
    }
  }
  return false;
}

}  // namespace setm
