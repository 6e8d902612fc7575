// A4 — google-benchmark microbenchmarks of the primitives everything else
// is built from: external sort, merge-scan join, B+-tree probes and hash-
// tree candidate counting.

#include <benchmark/benchmark.h>

#include "baselines/hash_tree.h"
#include "common/random.h"
#include "exec/exec_context.h"
#include "exec/external_sort.h"
#include "exec/operators.h"
#include "index/bplus_tree.h"
#include "relational/database.h"

namespace setm {
namespace {

Schema PairSchema() {
  return Schema(
      {Column{"a", ValueType::kInt32}, Column{"b", ValueType::kInt32}});
}

void BM_ExternalSort(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool spill = state.range(1) != 0;
  DatabaseOptions options;
  options.sort_memory_bytes = spill ? (64 << 10) : (256 << 20);
  Database db(options);
  ExecContext ctx = ExecContext::From(&db);
  Rng rng(1);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value::Int32(static_cast<int32_t>(rng.Uniform(1u << 20))),
                          Value::Int32(static_cast<int32_t>(i))}));
  }
  for (auto _ : state) {
    ExternalSort sort(ctx, PairSchema(), TupleComparator({0}));
    for (const Tuple& row : rows) {
      if (!sort.Add(row).ok()) state.SkipWithError("add failed");
    }
    auto it = sort.Finish();
    if (!it.ok()) state.SkipWithError("finish failed");
    Tuple row;
    int64_t count = 0;
    while (true) {
      auto more = it.value()->Next(&row);
      if (!more.ok() || !more.value()) break;
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExternalSort)
    ->Args({10000, 0})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_MergeJoin(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto left = std::make_unique<MemTable>("l", PairSchema());
  auto right = std::make_unique<MemTable>("r", PairSchema());
  for (int64_t i = 0; i < n; ++i) {
    // ~2 rows per key on each side -> ~4 output rows per key.
    (void)left->Insert(Tuple({Value::Int32(static_cast<int32_t>(i / 2)),
                              Value::Int32(static_cast<int32_t>(i))}));
    (void)right->Insert(Tuple({Value::Int32(static_cast<int32_t>(i / 2)),
                               Value::Int32(static_cast<int32_t>(-i))}));
  }
  for (auto _ : state) {
    MergeJoinIterator join(left->Scan(), right->Scan(), {0}, {0}, nullptr);
    Tuple row;
    int64_t count = 0;
    while (true) {
      auto more = join.Next(&row);
      if (!more.ok() || !more.value()) break;
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MergeJoin)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_BPlusTreeProbe(benchmark::State& state) {
  const int64_t n = state.range(0);
  IoStats stats;
  MemoryBackend backend(&stats);
  BufferPool pool(&backend, 4096);
  std::vector<BPlusTree::Entry> entries;
  entries.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({static_cast<uint64_t>(i), 0});
  }
  auto tree = BPlusTree::BulkLoad(&pool, entries);
  if (!tree.ok()) {
    state.SkipWithError("bulk load failed");
    return;
  }
  Rng rng(7);
  for (auto _ : state) {
    auto contains = tree->Contains(rng.Uniform(n), 0);
    benchmark::DoNotOptimize(contains.ok() && contains.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeProbe)->Arg(100000)->Arg(1000000);

void BM_HashTreeCount(benchmark::State& state) {
  const int64_t candidates = state.range(0);
  Rng rng(13);
  HashTree tree(3);
  std::set<std::vector<ItemId>> unique;
  while (unique.size() < static_cast<size_t>(candidates)) {
    std::set<ItemId> s;
    while (s.size() < 3) s.insert(static_cast<ItemId>(rng.Uniform(200)));
    std::vector<ItemId> v(s.begin(), s.end());
    if (unique.insert(v).second) tree.Insert(v);
  }
  std::vector<std::vector<ItemId>> txns;
  for (int t = 0; t < 1000; ++t) {
    std::set<ItemId> s;
    while (s.size() < 10) s.insert(static_cast<ItemId>(rng.Uniform(200)));
    txns.emplace_back(s.begin(), s.end());
  }
  for (auto _ : state) {
    for (const auto& t : txns) tree.CountTransaction(t);
  }
  state.SetItemsProcessed(state.iterations() * txns.size());
}
BENCHMARK(BM_HashTreeCount)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace setm

BENCHMARK_MAIN();
