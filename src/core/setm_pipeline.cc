#include "core/setm_pipeline.h"

namespace setm {

Status CountSorted(IntRowSort* sort, size_t width, int64_t min_count,
                   std::vector<PatternCount>* out) {
  auto sorted_or = sort->Finish();
  if (!sorted_or.ok()) return sorted_or.status();
  std::vector<ItemId> group;
  int64_t count = 0;
  const auto emit = [&] {
    if (count >= min_count) out->push_back(PatternCount{group, count});
  };
  SETM_RETURN_IF_ERROR(ForEachRow(
      sorted_or.value().get(), [&](const int32_t* row) {
        if (count > 0 && std::equal(row + 1, row + width, group.begin())) {
          ++count;
          return Status::OK();
        }
        if (count > 0) emit();
        group.assign(row + 1, row + width);
        count = 1;
        return Status::OK();
      }));
  if (count > 0) emit();
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
