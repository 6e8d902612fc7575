#include "core/setm_pipeline.h"

#include <utility>

#include "exec/expression.h"
#include "exec/external_sort.h"
#include "exec/operators.h"

namespace setm {

namespace {

/// Columns [first, k] of an R_k row: from 1, its items (the C_k group
/// key); from 0, (trans_id, items) — the order every R_k is kept in.
std::vector<size_t> Columns(size_t first, size_t k) {
  std::vector<size_t> cols;
  for (size_t i = first; i <= k; ++i) cols.push_back(i);
  return cols;
}

}  // namespace

Result<std::unique_ptr<Table>> NewScratchRelation(Database* db,
                                                  TableBacking backing,
                                                  const std::string& name,
                                                  Schema schema) {
  if (backing == TableBacking::kMemory) {
    return std::unique_ptr<Table>(
        std::make_unique<MemTable>(name, std::move(schema)));
  }
  auto t = HeapTable::Create(name, std::move(schema), db->pool(),
                             db->UnloggedPageTagger());
  if (!t.ok()) return t.status();
  return std::unique_ptr<Table>(std::move(t).value());
}

Status JoinIntoRkPrime(const Table& left, const Table& r1, size_t k,
                       Table* rk_prime, const CountSink& sink) {
  // Combined row: (trans_id, item_1..item_{k-1}, trans_id, item).
  const size_t last_left_item = k - 1;  // index of item_{k-1}
  const size_t right_item = k + 1;
  ExprPtr residual = Binary(BinaryOp::kGt, Col(right_item, "q.item"),
                            Col(last_left_item, "p.item_last"));
  MergeJoinIterator join(left.Scan(), r1.Scan(), {0}, {0},
                         std::move(residual));
  // Project to (trans_id, item_1 .. item_k).
  Tuple row;
  std::vector<Value> values;
  std::vector<ItemId> items(k);
  while (true) {
    auto more = join.Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    values.clear();
    for (size_t i = 0; i < k; ++i) values.push_back(row.value(i));
    values.push_back(row.value(right_item));
    SETM_RETURN_IF_ERROR(rk_prime->Insert(Tuple(values)));
    if (sink) {
      for (size_t i = 0; i < k; ++i) items[i] = values[i + 1].AsInt32();
      sink(items);
    }
  }
  return Status::OK();
}

Status FilterRkPrimeIntoRk(ExecContext ctx, const Table& rk_prime, size_t k,
                           const CkKeys& ck, Table* rk) {
  ExternalSort sort(ctx, SetmMiner::RkSchema(k),
                    TupleComparator(Columns(0, k)));
  auto it = rk_prime.Scan();
  Tuple row;
  std::vector<ItemId> items(k);
  while (true) {
    auto more = it->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    for (size_t i = 0; i < k; ++i) items[i] = row.value(i + 1).AsInt32();
    if (ck.count(ItemsetKey(items)) != 0) {
      SETM_RETURN_IF_ERROR(sort.Add(row));
    }
  }
  auto sorted_or = sort.Finish();
  if (!sorted_or.ok()) return sorted_or.status();
  return MaterializeInto(sorted_or.value().get(), rk);
}

Status FilterR1Into(const Table& r1, const CkKeys& c1, Table* out) {
  auto it = r1.Scan();
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    if (c1.count(ItemsetKey({row.value(1).AsInt32()})) != 0) {
      SETM_RETURN_IF_ERROR(out->Insert(row));
    }
  }
  return Status::OK();
}

Status CountInto(ExecContext ctx, const Table& relation, size_t k,
                 int64_t min_count, std::vector<PatternCount>* out) {
  std::vector<size_t> group_columns = Columns(1, k);
  auto sorted = std::make_unique<SortIterator>(ctx, relation.Scan(),
                                               TupleComparator(group_columns));
  SortedGroupCountIterator counts(std::move(sorted), std::move(group_columns),
                                  min_count);
  Tuple row;
  while (true) {
    auto more = counts.Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    std::vector<ItemId> items;
    items.reserve(k);
    for (size_t i = 0; i < k; ++i) items.push_back(row.value(i).AsInt32());
    out->push_back(PatternCount{std::move(items), row.value(k).AsInt64()});
  }
  return Status::OK();
}

}  // namespace setm
