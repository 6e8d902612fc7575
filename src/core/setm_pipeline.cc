#include "core/setm_pipeline.h"

#include <iterator>
#include <numeric>
#include <string>

#include "exec/external_sort.h"
#include "obs/metrics.h"

namespace setm {

void AppendEntry(const ItemId* key, size_t k, int64_t count,
                 std::vector<int32_t>* rows) {
  constexpr int64_t kMaxRowCount = INT32_MAX;
  for (; count > 0; count -= kMaxRowCount) {
    rows->insert(rows->end(), key, key + k);
    rows->push_back(static_cast<int32_t>(std::min(count, kMaxRowCount)));
  }
}

namespace {

/// Appends `table`'s entries in key order as (key, count) rows.
void AppendEntryRows(const ItemsetCounts& table, std::vector<int32_t>* rows) {
  table.ForEachSorted([&](const ItemId* key, int64_t count) {
    AppendEntry(key, table.k(), count, rows);
  });
}

/// The last scans of `runs`, which they take, in order.
std::vector<std::unique_ptr<IntRowCursor>> LastScans(
    std::vector<std::unique_ptr<IntRelation>> runs) {
  std::vector<std::unique_ptr<IntRowCursor>> cursors;
  cursors.reserve(runs.size() + 1);
  for (auto& run : runs) {
    cursors.push_back(IntRelation::LastScan(std::move(run)));
  }
  return cursors;
}

void FlushCountMetrics(const CountStats& stats) {
  static obs::Counter* rows = obs::MetricsRegistry::Global()->GetCounter(
      "setm_count_rows_total", "R'_k rows aggregated by the C_k count");
  static obs::Counter* spilled = obs::MetricsRegistry::Global()->GetCounter(
      "setm_count_spilled_runs_total",
      "Runs of (itemset, count) entries the C_k count spilled");
  static obs::Counter* entries = obs::MetricsRegistry::Global()->GetCounter(
      "setm_count_spilled_entries_total",
      "(itemset, count) entries in the C_k count's spilled runs");
  static obs::Counter* passes = obs::MetricsRegistry::Global()->GetCounter(
      "setm_count_merge_passes_total",
      "Cascaded passes merging the C_k count's spilled runs");
  static obs::Counter* probes = obs::MetricsRegistry::Global()->GetCounter(
      "setm_itemset_probes_total",
      "Itemset-key hash probes on a shard: the adds of a hashed C_k count");
  static obs::Gauge* peak = obs::MetricsRegistry::Global()->GetGauge(
      "setm_mem_count_bytes",
      "High-water mark of one C_k count table's allocated bytes");
  rows->Increment(stats.rows);
  spilled->Increment(stats.spilled_runs);
  entries->Increment(stats.spilled_entries);
  passes->Increment(stats.merge_passes);
  probes->Increment(stats.probes);
  peak->RaiseTo(static_cast<int64_t>(stats.peak_bytes));
}

/// A transaction's R_1 items as a pass reads them, by C_1 rank: the ranks
/// of its C_1 items in order (a repeated SALES row repeated), and one table
/// indexed by C_1 rank that holds, for each of them, its copies, where
/// they end in that order and the transaction's R_1 rows above it. A load
/// costs O(the transaction's items): it clears only the entries that the
/// transaction before it set.
class TransactionRanks {
 public:
  explicit TransactionRanks(size_t c1_size) : at_(c1_size) {}

  /// Loads the transaction whose R_1 items are [first, last) (ascending).
  void Load(const ItemId* first, const ItemId* last, const ItemRanks& c1) {
    for (int32_t rank : ranks_) at_[static_cast<size_t>(rank)].copies = 0;
    ranks_.clear();
    pairs_ = 0;
    repeats_ = false;
    // A group's ids are counted in a uint32 (GroupPage).
    const uint32_t n = static_cast<uint32_t>(last - first);
    for (uint32_t i = 0; i < n;) {
      uint32_t j = i + 1;  // past every copy of first[i]
      while (j < n && first[j] == first[i]) ++j;
      pairs_ += uint64_t{j - i} * (n - j);
      const int32_t rank = c1.RankOf(first[i]);
      if (rank != ItemRanks::kAbsent) {
        repeats_ = repeats_ || j - i > 1;
        for (uint32_t copy = i; copy < j; ++copy) ranks_.push_back(rank);
        at_[static_cast<size_t>(rank)] =
            Entry{j - i, static_cast<uint32_t>(ranks_.size()), n - j};
      }
      i = j;
    }
  }

  /// The transaction's C_1 items, copies included, and their ranks.
  size_t size() const { return ranks_.size(); }
  const int32_t* ranks() const { return ranks_.data(); }
  /// The copies of the C_1 item of `rank`: 0 when the transaction lacks
  /// it.
  uint32_t Copies(int32_t rank) const {
    return at_[static_cast<size_t>(rank)].copies;
  }
  /// Where the C_1 items above the present item of `rank` start in
  /// ranks().
  size_t FirstAbove(int32_t rank) const {
    const Entry& at = at_[static_cast<size_t>(rank)];
    SETM_DCHECK(at.copies != 0);
    return at.next;
  }
  /// The transaction's R_1 rows, in C_1 or not, above the present item of
  /// `rank`: the R'_{k+1} rows of a kept row that ends in it.
  uint64_t RowsAfter(int32_t rank) const {
    return at_[static_cast<size_t>(rank)].after;
  }
  /// The transaction's R'_2 rows: each of its R_1 items, in C_1 or not,
  /// paired with every greater one.
  uint64_t Pairs() const { return pairs_; }
  /// Whether a C_1 item has more than one copy.
  bool repeats() const { return repeats_; }

 private:
  struct Entry {
    uint32_t copies = 0;  ///< 0: the transaction lacks the item
    uint32_t next = 0;    ///< the position in ranks_ past its copies
    uint32_t after = 0;   ///< R_1 rows above it
  };

  std::vector<Entry> at_;  ///< by C_1 rank
  std::vector<int32_t> ranks_;
  uint64_t pairs_ = 0;
  bool repeats_ = false;
};

}  // namespace

ItemRanks::ItemRanks(std::vector<ItemId> items) : items_(std::move(items)) {
  SETM_DCHECK(std::adjacent_find(items_.begin(), items_.end(),
                                 std::greater_equal<ItemId>()) ==
              items_.end());
  if (items_.empty()) return;
  base_ = items_.front();
  const uint64_t span =
      static_cast<uint64_t>(int64_t{items_.back()} - base_) + 1;
  if (!DenseSpan(span, items_.size())) return;
  table_.assign(span, kAbsent);
  for (size_t rank = 0; rank < items_.size(); ++rank) {
    table_[static_cast<size_t>(int64_t{items_[rank]} - base_)] =
        static_cast<int32_t>(rank);
  }
}

BudgetedCount::BudgetedCount(ExecContext ctx, size_t k, size_t budget_bytes)
    : ctx_(std::move(ctx)), k_(k), budget_bytes_(budget_bytes), table_(k) {}

Status BudgetedCount::WriteRun(const std::vector<int32_t>& rows) {
  auto run_or =
      IntRelation::CreateInPool(ctx_.pool, k_ + 1, ctx_.unlogged_page_tagger);
  if (!run_or.ok()) return run_or.status();
  std::unique_ptr<IntRelation> run = std::move(run_or).value();
  SETM_RETURN_IF_ERROR(run->Append(rows.data(), rows.size() / (k_ + 1)));
  SETM_RETURN_IF_ERROR(run->Finish());
  runs_.push_back(std::move(run));
  return Status::OK();
}

Status BudgetedCount::SpillAndAdd(const ItemId* key, int64_t count) {
  std::vector<int32_t> rows;
  AppendEntryRows(table_, &rows);
  ++stats_.spilled_runs;
  stats_.spilled_entries += table_.size();
  SETM_RETURN_IF_ERROR(WriteRun(rows));
  table_.Clear();
  ++stats_.probes;
  table_.Add(key, count);  // an empty table takes any key without growing
  return Status::OK();
}

Status BudgetedCount::MergePass() {
  ++stats_.merge_passes;
  std::vector<std::unique_ptr<IntRelation>> runs = std::move(runs_);
  runs_.clear();
  std::vector<int32_t> rows;
  for (size_t i = 0; i < runs.size(); i += kMergeFanIn) {
    const size_t take = std::min(kMergeFanIn, runs.size() - i);
    if (take == 1) {
      runs_.push_back(std::move(runs[i]));
      continue;
    }
    std::vector<std::unique_ptr<IntRelation>> group(
        std::make_move_iterator(runs.begin() + i),
        std::make_move_iterator(runs.begin() + i + take));
    auto run_or = IntRelation::CreateInPool(ctx_.pool, k_ + 1,
                                            ctx_.unlogged_page_tagger);
    if (!run_or.ok()) return run_or.status();
    std::unique_ptr<IntRelation> run = std::move(run_or).value();
    SETM_RETURN_IF_ERROR(SumByKey(
        k_, LastScans(std::move(group)),
        [&](const ItemId* key, int64_t count) {
          rows.clear();
          AppendEntry(key, k_, count, &rows);
          return run->Append(rows.data(), rows.size() / (k_ + 1));
        }));
    SETM_RETURN_IF_ERROR(run->Finish());
    runs_.push_back(std::move(run));
  }
  return Status::OK();
}

Status BudgetedCount::Finish(
    int64_t min_count,
    const std::function<void(const ItemId*, int64_t)>& emit) {
  stats_.peak_bytes = table_.bytes();  // the table never shrinks
  std::vector<int32_t> rest;
  AppendEntryRows(table_, &rest);
  table_ = ItemsetCounts(k_);
  while (runs_.size() > kMergeFanIn) SETM_RETURN_IF_ERROR(MergePass());
  std::vector<std::unique_ptr<IntRowCursor>> inputs =
      LastScans(std::move(runs_));
  inputs.push_back(std::make_unique<IntArrayCursor>(std::move(rest), k_ + 1));
  return SumByKey(k_, std::move(inputs), [&](const ItemId* key, int64_t count) {
    if (count >= min_count) emit(key, count);
    return Status::OK();
  });
}

ExtensionCount::ExtensionCount(ExecContext ctx, const ExtensionSpace* space,
                               size_t budget_bytes)
    : space_(space) {
  const size_t ranks = space->alphabet.size();
  const size_t dense_limit = std::min(budget_bytes, ctx.sort_memory_bytes);
  const size_t max_counters = dense_limit / sizeof(int64_t);
  shift_.resize(space->num_parents());
  size_t counters = 0;
  for (size_t id = 0; id < shift_.size() && counters <= max_counters; ++id) {
    shift_[id] = static_cast<int64_t>(counters) - space->last_rank[id] - 1;
    counters += ranks - static_cast<size_t>(space->last_rank[id] + 1);
  }
  if (counters <= max_counters) {
    dense_.assign(counters, 0);
    return;
  }
  shift_.clear();
  shift_.shrink_to_fit();
  hashed_ = std::make_unique<BudgetedCount>(ctx, 2, budget_bytes);
}

Status ExtensionCount::Finish(int64_t min_count, std::vector<int32_t>* rows) {
  min_count = std::max<int64_t>(min_count, 1);
  const ItemRanks& alphabet = space_->alphabet;
  if (hashed_ == nullptr) {
    stats_.peak_bytes = dense_.size() * sizeof(int64_t);
    const int32_t ranks = static_cast<int32_t>(alphabet.size());
    for (uint32_t id = 0; id < shift_.size(); ++id) {
      for (int32_t rank = space_->last_rank[id] + 1; rank < ranks; ++rank) {
        const int64_t count = dense_[shift_[id] + rank];
        if (count < min_count) continue;
        const ItemId key[2] = {static_cast<ItemId>(id), alphabet.item(rank)};
        AppendEntry(key, 2, count, rows);
      }
    }
  } else {
    // (id, rank) order is (id, item) order: ranks follow items.
    SETM_RETURN_IF_ERROR(hashed_->Finish(
        min_count, [&](const ItemId* key, int64_t count) {
          const ItemId entry[2] = {key[0], alphabet.item(key[1])};
          AppendEntry(entry, 2, count, rows);
        }));
    const CountStats& hashed = hashed_->stats();
    stats_.spilled_runs = hashed.spilled_runs;
    stats_.spilled_entries = hashed.spilled_entries;
    stats_.merge_passes = hashed.merge_passes;
    stats_.peak_bytes = hashed.peak_bytes;
    stats_.probes = hashed.probes;
  }
  FlushCountMetrics(stats_);
  return Status::OK();
}

ItemCount::ItemCount(ExecContext ctx, size_t budget_bytes,
                     uint64_t expected_rows)
    : ctx_(std::move(ctx)),
      budget_bytes_(budget_bytes),
      expected_rows_(expected_rows),
      max_counters_(std::min(budget_bytes, ctx_.sort_memory_bytes) /
                    sizeof(int64_t)) {}

Status ItemCount::AddOutside(const ItemId* items, size_t n) {
  if (hashed_ == nullptr) {
    const uint64_t span = static_cast<uint64_t>(items[n - 1]) + 1;
    if (items[0] >= 0 && span <= max_counters_ &&
        ItemRanks::DenseSpan(span, std::max(stats_.rows, expected_rows_))) {
      // A quarter more room than before, within the ceiling: an array
      // grown an item at a time is copied a logarithmic number of times.
      if (span > dense_.capacity()) {
        dense_.reserve(std::min<uint64_t>(
            max_counters_,
            std::max<uint64_t>(span,
                               dense_.capacity() + dense_.capacity() / 4)));
      }
      dense_.resize(span);
      stats_.peak_bytes = dense_.capacity() * sizeof(int64_t);
      for (size_t i = 0; i < n; ++i) {
        ++dense_[static_cast<size_t>(items[i])];
      }
      return Status::OK();
    }
    // The counts so far move into the hashed table, in item order.
    hashed_ = std::make_unique<BudgetedCount>(ctx_, 2, budget_bytes_);
    for (size_t item = 0; item < dense_.size(); ++item) {
      if (dense_[item] == 0) continue;
      const ItemId key[2] = {0, static_cast<ItemId>(item)};
      SETM_RETURN_IF_ERROR(hashed_->Add(key, dense_[item]));
    }
    dense_ = std::vector<int64_t>();
  }
  for (size_t i = 0; i < n; ++i) {
    const ItemId key[2] = {0, items[i]};
    SETM_RETURN_IF_ERROR(hashed_->Add(key));
  }
  return Status::OK();
}

Status ItemCount::Finish(int64_t min_count, std::vector<int32_t>* rows) {
  min_count = std::max<int64_t>(min_count, 1);
  if (hashed_ == nullptr) {
    for (size_t item = 0; item < dense_.size(); ++item) {
      if (dense_[item] < min_count) continue;
      const ItemId key[2] = {0, static_cast<ItemId>(item)};
      AppendEntry(key, 2, dense_[item], rows);
    }
  } else {
    SETM_RETURN_IF_ERROR(hashed_->Finish(
        min_count, [rows](const ItemId* key, int64_t count) {
          AppendEntry(key, 2, count, rows);
        }));
    const CountStats& hashed = hashed_->stats();
    stats_.spilled_runs = hashed.spilled_runs;
    stats_.spilled_entries = hashed.spilled_entries;
    stats_.merge_passes = hashed.merge_passes;
    stats_.peak_bytes = std::max(stats_.peak_bytes, hashed.peak_bytes);
    stats_.probes = hashed.probes;
  }
  FlushCountMetrics(stats_);
  return Status::OK();
}

Result<int32_t> CheckKey(const CandidateLevel* prev, const CandidateKey* last,
                         CandidateKey key) {
  const auto spell = [](CandidateKey k) {
    return "(" + std::to_string(k.parent) + ", " + std::to_string(k.item) + ")";
  };
  const auto refuse = [&](const std::string& why) {
    return Status::InvalidArgument(
        "C_" + std::to_string(prev == nullptr ? 1 : prev->k + 1) + " key " +
        spell(key) + " " + why);
  };
  if (last != nullptr && !(*last < key)) {
    return refuse("follows " + spell(*last) + ": keys are not strictly "
                  "ascending");
  }
  // C_1's one parent is the empty itemset, id 0 of C_0.
  const size_t parents = prev == nullptr ? 1 : prev->size();
  if (key.parent < 0 || static_cast<size_t>(key.parent) >= parents) {
    return refuse("names a parent outside C_" +
                  std::to_string(prev == nullptr ? 0 : prev->k) +
                  "'s ids [0, " + std::to_string(parents) + ")");
  }
  if (prev == nullptr) return 0;
  const int32_t rank = prev->space.alphabet.RankOf(key.item);
  if (rank == ItemRanks::kAbsent) return refuse("has an item outside C_1");
  if (rank <= prev->space.last_rank[key.parent]) {
    return refuse("has an item not above its parent's last item");
  }
  return rank;
}

Result<CandidateLevel> IndexCandidates(size_t k,
                                       const std::vector<CandidateKey>& keys,
                                       const CandidateLevel* prev) {
  SETM_CHECK(k == 1 ? prev == nullptr : prev != nullptr && prev->k + 1 == k);
  CandidateLevel out;
  out.k = k;
  out.space.last_rank.resize(keys.size());
  std::vector<uint32_t> children(k == 1 ? 1 : prev->size(), 0);
  for (size_t id = 0; id < keys.size(); ++id) {
    auto rank = CheckKey(prev, id > 0 ? &keys[id - 1] : nullptr, keys[id]);
    if (!rank.ok()) return rank.status();
    out.space.last_rank[id] = rank.value();
    ++children[static_cast<size_t>(keys[id].parent)];
  }
  if (k == 1) {
    // C_1 is the alphabet: an item's id is its rank.
    std::vector<ItemId> items(keys.size());
    for (size_t id = 0; id < keys.size(); ++id) items[id] = keys[id].item;
    out.space.alphabet = ItemRanks(std::move(items));
    std::iota(out.space.last_rank.begin(), out.space.last_rank.end(), 0);
  } else {
    out.space.alphabet = prev->space.alphabet;
  }
  out.first_child.resize(children.size() + 1);
  out.first_child[0] = 0;
  std::partial_sum(children.begin(), children.end(),
                   out.first_child.begin() + 1);
  return out;
}

Status FilterByCk(GroupCursor* left, const GroupedRelation& r1,
                  const CandidateLevel* prev, const CandidateLevel& ck,
                  bool anti_monotone, GroupedRelation* out,
                  ExtensionCount* next) {
  const size_t k = ck.k;
  SETM_DCHECK(out != nullptr || k == 1);
  const ItemRanks& c1 = ck.space.alphabet;
  TransactionRanks txn(c1.size());
  std::vector<int32_t> kept;  // the transaction's group of `out`
  if (k == 1) {
    // R'_2 pairs the items of each transaction that pass 2 joins. A C_1
    // item's id is its rank, and every C_1 item is a sibling of every
    // other.
    IdGroup t;
    while (true) {
      auto more = left->Next(&t);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      const ItemId* items = t.begin;
      const ItemId* items_end = t.end;
      if (out != nullptr) {
        kept.clear();
        for (const ItemId* item = t.begin; item != t.end; ++item) {
          if (c1.RankOf(*item) != ItemRanks::kAbsent) kept.push_back(*item);
        }
        SETM_RETURN_IF_ERROR(out->Append(t.tid, kept.data(), kept.size()));
        items = kept.data();
        items_end = items + kept.size();
      }
      if (next == nullptr) continue;
      txn.Load(items, items_end, c1);
      next->AddRows(txn.Pairs());
      const int32_t* ranks = txn.ranks();
      for (size_t i = 0; i < txn.size(); ++i) {
        SETM_RETURN_IF_ERROR(next->AddExtensions(
            static_cast<uint32_t>(ranks[i]), ranks + txn.FirstAbove(ranks[i]),
            ranks + txn.size()));
      }
    }
    return out == nullptr ? Status::OK() : out->Finish();
  }

  // A left id names its C_{k-1} itemset: by its item's C_1 rank for k = 2,
  // as its C_{k-1} id for k >= 3.
  if (k >= 3) SETM_CHECK(prev != nullptr && prev->k + 1 == k);
  const int32_t* child_rank = ck.space.last_rank.data();
  const uint32_t* first_child = ck.first_child.data();
  std::vector<int32_t> siblings;  // a left row's kept children's ranks
  const auto pass = [&](const IdGroup& p, const ItemId* items,
                        const ItemId* items_end) -> Status {
    txn.Load(items, items_end, c1);
    // Copies break the sibling rule, and a copy's sibling would be its own
    // rank, outside its parent's counters.
    SETM_CHECK(!(anti_monotone && txn.repeats()));
    kept.clear();
    const int32_t* ranks = txn.ranks();
    for (const int32_t* id = p.begin; id != p.end; ++id) {
      size_t parent;
      if (k == 2) {
        const int32_t rank = c1.RankOf(*id);
        if (rank == ItemRanks::kAbsent) continue;
        parent = static_cast<size_t>(rank);
      } else {
        if (*id < 0 || static_cast<size_t>(*id) >= prev->size()) {
          return Status::Corruption(
              "R_" + std::to_string(k - 1) + " names C_" +
              std::to_string(k - 1) + " id " + std::to_string(*id) +
              ", outside [0, " + std::to_string(prev->size()) + ")");
        }
        parent = static_cast<size_t>(*id);
      }
      uint32_t child = first_child[parent];
      const uint32_t child_end = first_child[parent + 1];
      if (child == child_end) continue;
      // The row's R'_k rows in C_k are the parent's children whose last
      // item the transaction holds, each once per copy: one look-up in the
      // rank table per child.
      const size_t row_begin = kept.size();
      for (; child != child_end; ++child) {
        for (uint32_t copy = txn.Copies(child_rank[child]); copy != 0;
             --copy) {
          kept.push_back(static_cast<int32_t>(child));
        }
      }
      if (next == nullptr) continue;
      // Each kept row adds all of its R'_{k+1} rows to |R'_{k+1}|, and
      // counts as extensions its later kept siblings' ranks under
      // anti_monotone (see the header), else every C_1 item above it.
      if (anti_monotone) {
        siblings.clear();
        for (size_t j = row_begin; j < kept.size(); ++j) {
          siblings.push_back(child_rank[kept[j]]);
        }
      }
      for (size_t j = row_begin; j < kept.size(); ++j) {
        const int32_t rank = child_rank[kept[j]];
        next->AddRows(txn.RowsAfter(rank));
        const int32_t* first =
            anti_monotone ? siblings.data() + (j - row_begin) + 1
                          : ranks + txn.FirstAbove(rank);
        const int32_t* last =
            anti_monotone ? siblings.data() + siblings.size()
                          : ranks + txn.size();
        SETM_RETURN_IF_ERROR(next->AddExtensions(
            static_cast<uint32_t>(kept[j]), first, last));
      }
    }
    // The parents ascend, and a parent's children follow the children of
    // every parent below it, so the kept ids ascend too.
    return out->Append(p.tid, kept.data(), kept.size());
  };
  SETM_RETURN_IF_ERROR(JoinLeftRows(left, r1, pass));
  return out->Finish();
}

}  // namespace setm
