#ifndef SETM_EXEC_HASH_OPERATORS_H_
#define SETM_EXEC_HASH_OPERATORS_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/expression.h"
#include "relational/tuple.h"

namespace setm {

/// In-memory hash equi-join. The right side is built into a hash table on
/// first Next(); left rows stream and probe. Output is the concatenation
/// (left columns, right columns); an optional residual predicate filters
/// the combined row. Unlike MergeJoinIterator, inputs need no sort — the
/// trade the relational world made in the decades after the paper.
class HashJoinIterator : public TupleIterator {
 public:
  HashJoinIterator(std::unique_ptr<TupleIterator> left,
                   std::unique_ptr<TupleIterator> right,
                   std::vector<size_t> left_keys,
                   std::vector<size_t> right_keys, ExprPtr residual);

  Result<bool> Next(Tuple* out) override;
  const Schema& schema() const override { return schema_; }

 private:
  Status Build();
  std::string KeyOf(const Tuple& row, const std::vector<size_t>& cols) const;

  std::unique_ptr<TupleIterator> left_;
  std::unique_ptr<TupleIterator> right_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  ExprPtr residual_;
  Schema schema_;

  bool built_ = false;
  std::unordered_map<std::string, std::vector<Tuple>> table_;
  Tuple left_row_;
  bool left_valid_ = false;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

}  // namespace setm

#endif  // SETM_EXEC_HASH_OPERATORS_H_
