// Frequent itemsets kept flat, level by level in generation order.
//
// Level k holds its k-itemsets as one int32 array (k item ids per itemset)
// with a parallel counts array — the layout candidate generation, counting,
// checkpoints, rule generation and interest all read directly. Support
// lookups never hash a heap vector: a 1-itemset is found by its item id, a
// larger one through its level's open-addressing table over the packed ids
// (common/packed_key_table.h).
//
// Iterating the store yields FrequentItemset values materialised on the
// fly, in generation order, for callers that want one itemset at a time.
#ifndef QARM_MINING_ITEMSET_STORE_H_
#define QARM_MINING_ITEMSET_STORE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/packed_key_table.h"
#include "mining/apriori.h"

namespace qarm {

class FrequentItemsetStore {
 public:
  // One stored itemset, viewed in place.
  struct Ref {
    const int32_t* ids;
    size_t k;
    uint64_t count;
  };

  // Forward iterator over every itemset in generation order (level 1
  // first). Dereferencing copies the itemset out as a FrequentItemset.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FrequentItemset;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = FrequentItemset;

    FrequentItemset operator*() const;
    const_iterator& operator++();
    bool operator==(const const_iterator& other) const {
      return level_ == other.level_ && index_ == other.index_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class FrequentItemsetStore;
    const_iterator(const FrequentItemsetStore* store, size_t level,
                   size_t index);
    // Steps past empty levels so (level_, index_) names an itemset or end.
    void Settle();

    const FrequentItemsetStore* store_;
    size_t level_;  // 0-based: itemsets of size level_ + 1
    size_t index_;
  };

  // Itemsets of every level.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return const_iterator(this, 0, 0); }
  const_iterator end() const {
    return const_iterator(this, levels_.size(), 0);
  }

  // Levels run k = 1 .. num_levels(); a level may be empty (a counting pass
  // that found nothing frequent).
  size_t num_levels() const { return levels_.size(); }
  size_t level_size(size_t k) const { return level(k).counts.size(); }
  // Level k's ids, k per itemset, in generation order.
  const std::vector<int32_t>& level_ids(size_t k) const {
    return level(k).ids.words();
  }
  const std::vector<uint64_t>& level_counts(size_t k) const {
    return level(k).counts;
  }
  const int32_t* ids(size_t k, size_t i) const { return level(k).ids.key(i); }
  uint64_t count(size_t k, size_t i) const { return level(k).counts[i]; }

  // The itemset at generation-order position `pos` (< size()).
  Ref at(size_t pos) const;
  // The generation-order position of level k's first itemset.
  size_t level_begin(size_t k) const { return level_begin_[k - 1]; }

  // Appends level num_levels() + 1: `ids` holds its itemsets (k sorted ids
  // each, distinct) and `counts` their supports. Appending a non-empty
  // level indexes the one below it for FindCount.
  void AppendLevel(std::vector<int32_t> ids, std::vector<uint64_t> counts);

  // Looks up the support of the sorted k-itemset `ids`; false when it is
  // not stored. 1-itemsets are found by item id on any level count; a
  // level k >= 2 is searchable once a non-empty level k + 1 exists — rule
  // antecedents are proper subsets of stored itemsets, so that is every
  // lookup ap-genrules makes, and the top level of a capped run (the
  // largest) is never indexed.
  bool FindCount(const int32_t* ids, size_t k, uint64_t* count) const;

  // Builds a store from itemsets of any order: each level keeps the
  // relative order its itemsets have in `itemsets`. Every subset of a
  // stored itemset must be present (Apriori guarantees this).
  static FrequentItemsetStore FromItemsets(
      const std::vector<FrequentItemset>& itemsets);

 private:
  struct Level {
    PackedKeyTable ids;
    std::vector<uint64_t> counts;
  };

  const Level& level(size_t k) const { return levels_[k - 1]; }

  std::vector<Level> levels_;
  std::vector<size_t> level_begin_;
  // Level 1 by item id: position + 1, 0 when the item is not stored.
  std::vector<uint32_t> item_slot_;
  size_t size_ = 0;
};

}  // namespace qarm

#endif  // QARM_MINING_ITEMSET_STORE_H_
