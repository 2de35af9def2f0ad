// Rule generation from frequent itemsets — the ap-genrules procedure of
// [AS94], used by step 4 of the paper's problem decomposition. It runs over
// a FrequentItemsetStore of integer item ids: the quantitative miner's own
// store (its <attribute, range> items are catalog ids), or one built from
// the boolean AS'94 Apriori's output. There is one generator; callers only
// choose the rule type each emitted rule becomes.
#ifndef QARM_MINING_RULEGEN_H_
#define QARM_MINING_RULEGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "mining/apriori.h"
#include "mining/itemset_store.h"

namespace qarm {

// An association rule over integer item ids.
struct BooleanRule {
  std::vector<int32_t> antecedent;  // sorted
  std::vector<int32_t> consequent;  // sorted
  uint64_t count = 0;               // absolute support of antecedent+consequent
  double support = 0.0;             // fraction of transactions
  double confidence = 0.0;

  bool operator==(const BooleanRule& other) const {
    return antecedent == other.antecedent && consequent == other.consequent;
  }
};

// One rule as ap-genrules emits it. The id spans point into the
// generator's scratch buffers and are valid only during the callback.
struct RuleView {
  const int32_t* antecedent;
  size_t antecedent_size;
  const int32_t* consequent;
  size_t consequent_size;
  uint64_t count;  // support count of antecedent + consequent
  double support;
  double confidence;
};

// ap-genrules over the itemsets at generation-order positions [begin, end)
// of `store`: per itemset, consequents grow level-wise from single items,
// and a consequent that fails minconf drops all its supersets. Calls `emit`
// for every rule with confidence >= minconf, in order: itemsets in
// generation order, then consequents by size, then lexicographically.
// Antecedent supports are read from the store (FindCount).
void ForEachRule(const FrequentItemsetStore& store, size_t begin, size_t end,
                 size_t num_transactions, double minconf,
                 const std::function<void(const RuleView&)>& emit);

// The parallelism ap-genrules applies to `num_itemsets` itemsets at the
// MinerOptions-style `num_threads` (0 = all hardware cores): 1 below the
// size where waking a pool pays.
size_t RuleGenThreads(size_t num_itemsets, size_t num_threads);

// Every rule of `store` as a `Rule` built by make(const RuleView&). Rule
// generation is independent per itemset, so with more than one thread
// itemset chunks fan out across a pool with per-chunk buffers concatenated
// in chunk order: the rules are identical, in the same order, at any thread
// count. `threads_used`, when non-null, receives RuleGenThreads.
template <typename Rule, typename MakeRule>
std::vector<Rule> GenerateRulesAs(const FrequentItemsetStore& store,
                                  size_t num_transactions, double minconf,
                                  size_t num_threads, size_t* threads_used,
                                  const MakeRule& make) {
  const size_t threads = RuleGenThreads(store.size(), num_threads);
  if (threads_used != nullptr) *threads_used = threads;
  std::vector<Rule> rules;
  if (threads <= 1) {
    ForEachRule(store, 0, store.size(), num_transactions, minconf,
                [&](const RuleView& view) { rules.push_back(make(view)); });
    return rules;
  }
  // Itemset costs vary wildly (rule count is exponential in itemset size),
  // so the pool gets several chunks per worker and balances them by
  // dynamic task claiming.
  constexpr size_t kChunksPerThread = 8;
  const std::vector<IndexRange> chunks =
      SplitRange(store.size(), threads * kChunksPerThread);
  std::vector<std::vector<Rule>> partial(chunks.size());
  ThreadPool pool(threads);
  pool.ParallelFor(chunks.size(), [&](size_t c) {
    ForEachRule(store, chunks[c].begin, chunks[c].end, num_transactions,
                minconf, [&](const RuleView& view) {
                  partial[c].push_back(make(view));
                });
  });
  size_t total = 0;
  for (const std::vector<Rule>& p : partial) total += p.size();
  rules.reserve(total);
  for (std::vector<Rule>& p : partial) {
    for (Rule& rule : p) rules.push_back(std::move(rule));
    std::vector<Rule>().swap(p);
  }
  return rules;
}

// Generates every rule X => Y with X ∪ Y frequent, X ∩ Y = ∅, Y non-empty,
// and confidence >= minconf, as BooleanRules (GenerateRulesAs).
// `num_transactions` converts counts to support fractions.
std::vector<BooleanRule> GenerateRules(const FrequentItemsetStore& itemsets,
                                       size_t num_transactions, double minconf,
                                       size_t num_threads = 1,
                                       size_t* threads_used = nullptr);

// The AS'94 baseline's entry point: builds a store from `itemsets` (e.g.
// AprioriMine's output; every subset of an itemset must be present) and
// runs the generator above over it.
std::vector<BooleanRule> GenerateRules(
    const std::vector<FrequentItemset>& itemsets, size_t num_transactions,
    double minconf, size_t num_threads = 1, size_t* threads_used = nullptr);

}  // namespace qarm

#endif  // QARM_MINING_RULEGEN_H_
