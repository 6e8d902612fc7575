#include "core/setm_pipeline.h"

#include <algorithm>

#include "exec/external_sort.h"

namespace setm {

Status JoinRkPrime(const IntRelation& left, const IntRelation& r1,
                   IntRelation* rk_prime, ItemsetCounts* counts) {
  const size_t k = left.width();  // R_{k-1}: trans_id + k-1 items
  SETM_DCHECK(r1.width() == 2 && rk_prime->width() == k + 1);
  SETM_DCHECK(counts == nullptr || counts->k() == k);
  auto left_rows = left.Scan();
  auto r1_rows = r1.Scan();
  const int32_t* p = nullptr;  // the current R_{k-1} row
  const int32_t* q = nullptr;  // the current R_1 row
  bool p_valid = false;
  bool q_valid = false;
  const auto next_p = [&]() -> Status {
    auto more = left_rows->Next(&p);
    if (!more.ok()) return more.status();
    p_valid = more.value();
    return Status::OK();
  };
  const auto next_q = [&]() -> Status {
    auto more = r1_rows->Next(&q);
    if (!more.ok()) return more.status();
    q_valid = more.value();
    return Status::OK();
  };
  SETM_RETURN_IF_ERROR(next_p());
  SETM_RETURN_IF_ERROR(next_q());
  std::vector<ItemId> items;         // R_1 items of the joined transaction
  std::vector<int32_t> row(k + 1);   // the R'_k row being assembled
  IntRowBatch out(rk_prime);
  while (p_valid && q_valid) {
    if (p[0] < q[0]) {
      SETM_RETURN_IF_ERROR(next_p());
      continue;
    }
    if (p[0] > q[0]) {
      SETM_RETURN_IF_ERROR(next_q());
      continue;
    }
    const TransactionId tid = p[0];
    items.clear();
    do {
      items.push_back(q[1]);
      SETM_RETURN_IF_ERROR(next_q());
    } while (q_valid && q[0] == tid);
    do {
      // q.item > p.item_{k-1}: the items are in order, so the qualifying
      // ones are a suffix.
      std::copy_n(p, k, row.begin());
      for (auto it = std::upper_bound(items.begin(), items.end(), p[k - 1]);
           it != items.end(); ++it) {
        row[k] = *it;
        SETM_RETURN_IF_ERROR(out.Add(row.data()));
        if (counts != nullptr) counts->Add(row.data() + 1, 1);
      }
      SETM_RETURN_IF_ERROR(next_p());
    } while (p_valid && p[0] == tid);
  }
  return out.Flush();
}

Status CountSorted(ExecContext ctx, const IntRelation& relation,
                   int64_t min_count, std::vector<PatternCount>* out) {
  const size_t width = relation.width();
  IntRowSort sort(ctx, width, /*key_begin=*/1, /*key_end=*/width);
  SETM_RETURN_IF_ERROR(ForEachRow(
      relation.Scan().get(), [&sort](const int32_t* row) {
        return sort.Add(row);
      }));
  auto sorted_or = sort.Finish();
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

Status FilterByCk(ExecContext ctx, const IntRelation& in,
                  const ItemsetCounts& ck, IntRelation* out) {
  const size_t width = in.width();
  SETM_DCHECK(ck.k() + 1 == width && out->width() == width);
  IntRowBatch batch(out);
  if (width == 2) {
    SETM_RETURN_IF_ERROR(
        ForEachRow(in.Scan().get(), [&](const int32_t* row) {
          return ck.Count(row + 1) != 0 ? batch.Add(row) : Status::OK();
        }));
    return batch.Flush();
  }
  IntRowSort sort(ctx, width, /*key_begin=*/0, /*key_end=*/width);
  SETM_RETURN_IF_ERROR(ForEachRow(in.Scan().get(), [&](const int32_t* row) {
    return ck.Count(row + 1) != 0 ? sort.Add(row) : Status::OK();
  }));
  auto sorted_or = sort.Finish();
  if (!sorted_or.ok()) return sorted_or.status();
  SETM_RETURN_IF_ERROR(ForEachRow(
      sorted_or.value().get(),
      [&batch](const int32_t* row) { return batch.Add(row); }));
  return batch.Flush();
}

}  // namespace setm
