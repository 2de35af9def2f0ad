#include "mining/rulegen.h"

#include "common/macros.h"

namespace qarm {
namespace {

// Below this many frequent itemsets the whole generation is cheaper than
// waking a pool; the serial path is taken regardless of num_threads.
constexpr size_t kMinParallelItemsets = 128;

}  // namespace

size_t RuleGenThreads(size_t num_itemsets, size_t num_threads) {
  return num_itemsets >= kMinParallelItemsets ? ResolveNumThreads(num_threads)
                                              : 1;
}

void ForEachRule(const FrequentItemsetStore& store, size_t begin, size_t end,
                 size_t num_transactions, double minconf,
                 const std::function<void(const RuleView&)>& emit) {
  const double n = static_cast<double>(num_transactions);
  // Scratch reused across itemsets: nothing is allocated per rule.
  std::vector<int32_t> consequents;
  std::vector<int32_t> surviving;
  std::vector<int32_t> antecedent;
  std::vector<int32_t> subset;

  size_t k = 1;
  for (size_t pos = begin; pos < end; ++pos) {
    while (pos >= store.level_begin(k) + store.level_size(k)) ++k;
    if (k < 2) continue;
    const int32_t* itemset = store.ids(k, pos - store.level_begin(k));
    const uint64_t count = store.count(k, pos - store.level_begin(k));
    const double itemset_support = static_cast<double>(count);
    antecedent.resize(k);

    // Consequents grow level-wise from the single items. A consequent that
    // fails the confidence test drops all its supersets: a superset
    // consequent has a smaller antecedent, hence no smaller antecedent
    // support, hence no larger confidence.
    consequents.assign(itemset, itemset + k);
    for (size_t m = 1; !consequents.empty(); ++m) {
      surviving.clear();
      for (size_t c = 0; c < consequents.size() / m; ++c) {
        const int32_t* consequent = consequents.data() + c * m;
        // Antecedent = itemset \ consequent; both are sorted and the
        // consequent is a subset, so one merge pass splits them.
        size_t a = 0;
        size_t j = 0;
        for (size_t i = 0; i < k; ++i) {
          if (j < m && itemset[i] == consequent[j]) {
            ++j;
          } else {
            antecedent[a++] = itemset[i];
          }
        }
        uint64_t antecedent_count = 0;
        QARM_CHECK(store.FindCount(antecedent.data(), k - m,
                                   &antecedent_count));
        const double confidence =
            itemset_support / static_cast<double>(antecedent_count);
        if (confidence + 1e-12 < minconf) continue;
        emit(RuleView{antecedent.data(), k - m, consequent, m, count,
                      itemset_support / n, confidence});
        surviving.insert(surviving.end(), consequent, consequent + m);
      }
      // Survivors keep the consequents' lexicographic order, which the
      // join below needs and preserves. Consequents of k items would leave
      // no antecedent, so the last level is not generated.
      if (m + 1 == k) break;
      AprioriGenFlat(surviving, m, &consequents, &subset);
    }
  }
}

std::vector<BooleanRule> GenerateRules(const FrequentItemsetStore& itemsets,
                                       size_t num_transactions, double minconf,
                                       size_t num_threads,
                                       size_t* threads_used) {
  return GenerateRulesAs<BooleanRule>(
      itemsets, num_transactions, minconf, num_threads, threads_used,
      [](const RuleView& view) {
        BooleanRule rule;
        rule.antecedent.assign(view.antecedent,
                               view.antecedent + view.antecedent_size);
        rule.consequent.assign(view.consequent,
                               view.consequent + view.consequent_size);
        rule.count = view.count;
        rule.support = view.support;
        rule.confidence = view.confidence;
        return rule;
      });
}

std::vector<BooleanRule> GenerateRules(
    const std::vector<FrequentItemset>& itemsets, size_t num_transactions,
    double minconf, size_t num_threads, size_t* threads_used) {
  return GenerateRules(FrequentItemsetStore::FromItemsets(itemsets),
                       num_transactions, minconf, num_threads, threads_used);
}

}  // namespace qarm
