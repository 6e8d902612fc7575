#ifndef SETM_COSTMODEL_ANALYSIS_H_
#define SETM_COSTMODEL_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace setm {

/// The hypothetical retailing database of Section 3.2, used by both
/// analyses. Defaults are the paper's numbers.
struct HypotheticalDb {
  uint64_t num_items = 1000;
  uint64_t num_transactions = 200000;
  double avg_transaction_size = 10.0;
  uint64_t page_size = 4096;
  uint64_t tuple_bytes = 8;       ///< 4-byte item + 4-byte trans_id
  double min_support = 0.005;     ///< 0.5% = 1000 transactions
  double random_ms = 20.0;        ///< cost of one random page fetch
  double sequential_ms = 10.0;    ///< cost of one sequential page access

  /// Total SALES tuples: |D| x |T|.
  uint64_t SalesTuples() const {
    return static_cast<uint64_t>(num_transactions * avg_transaction_size);
  }
  /// Probability an item appears in a transaction (uniform assumption).
  double ItemProbability() const {
    return avg_transaction_size / static_cast<double>(num_items);
  }
};

/// B+-tree size estimate in the style of Section 3.2.
struct BTreeEstimate {
  uint64_t num_entries = 0;
  uint64_t entries_per_leaf = 0;
  uint64_t entries_per_nonleaf = 0;
  uint64_t leaf_pages = 0;
  uint64_t nonleaf_pages = 0;  ///< all levels above the leaves
  uint32_t levels = 0;         ///< including the leaf level
};

/// Computes leaf/non-leaf page counts and height for a B+-tree with the
/// given fanouts (paper defaults: 500 entries per leaf for the 8-byte
/// (item, trans_id) entries, 333 per non-leaf page).
BTreeEstimate EstimateBTree(uint64_t num_entries, uint64_t entries_per_leaf,
                            uint64_t entries_per_nonleaf);

/// Section 3.2: expected cost of generating C_2 with the nested-loop
/// strategy. The paper's walk-through:
///   |C1| = num_items (uniformity makes every item frequent);
///   per C1 row: 1% of the (item, trans_id) leaf pages (~40 fetches), then
///   one (trans_id)-index fetch per matching transaction (~2000);
///   total ~ 1000 x (40 + 2000) ~ 2,000,000 random fetches ~ 11 hours.
struct NestedLoopAnalysis {
  uint64_t c1_size = 0;
  double leaf_fetches_per_item = 0.0;
  double matching_tids_per_item = 0.0;
  uint64_t total_page_fetches = 0;
  double estimated_seconds = 0.0;
  BTreeEstimate item_tid_index;
  BTreeEstimate tid_index;
};
NestedLoopAnalysis AnalyzeNestedLoop(const HypotheticalDb& db);

/// Section 4.3: I/O bound of the sort-merge strategy. Cardinality model:
/// |R'_i| = C(|T|, i) x |D| (worst case: nothing filtered), tuple size
/// (i+1) x 4 bytes. The paper's worked example stops after R'_2 (R_3
/// empty): 3 x ||R1|| + 4 x ||R'_2|| = 120,000 accesses ~ 10 minutes,
/// all sequential.
/// This models the paper's plan, which stores R'_k and sorts R_k back on
/// trans_id. The engine streams R'_k out of the join twice instead (count
/// and filter pass): no R'_k write, no R_k sort, one extra read of R_{k-1}
/// and R_1 per iteration. Nor does the engine sort R'_k for the count, as
/// the paper charges: it aggregates R'_k rows into a table within the sort
/// budget and spills only sorted (itemset, count) entries, at most one per
/// candidate per run, nothing when the candidates fit. Its measured pages
/// do not map term for term; the paper figures here stay unchanged.
struct SortMergeAnalysis {
  uint64_t r1_pages = 0;
  std::vector<uint64_t> r_prime_pages;  ///< ||R'_2||, ||R'_3||, ...
  uint64_t total_page_accesses = 0;
  double estimated_seconds = 0.0;
};
/// `max_pattern_length` n means R_{n+1} is empty (paper example: 2).
SortMergeAnalysis AnalyzeSortMerge(const HypotheticalDb& db,
                                   uint32_t max_pattern_length);

/// Renders the two analyses side by side as the comparison table the paper
/// builds across Sections 3.2/4.3 ("more than 11 hours" vs "10 minutes").
std::string RenderAnalysisTable(const NestedLoopAnalysis& nl,
                                const SortMergeAnalysis& sm);

}  // namespace setm

#endif  // SETM_COSTMODEL_ANALYSIS_H_
