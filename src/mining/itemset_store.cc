#include "mining/itemset_store.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace qarm {

FrequentItemsetStore::const_iterator::const_iterator(
    const FrequentItemsetStore* store, size_t level, size_t index)
    : store_(store), level_(level), index_(index) {
  Settle();
}

void FrequentItemsetStore::const_iterator::Settle() {
  while (level_ < store_->levels_.size() &&
         index_ >= store_->levels_[level_].counts.size()) {
    ++level_;
    index_ = 0;
  }
}

FrequentItemset FrequentItemsetStore::const_iterator::operator*() const {
  const Level& level = store_->levels_[level_];
  const int32_t* ids = level.ids.key(index_);
  return FrequentItemset{std::vector<int32_t>(ids, ids + level_ + 1),
                         level.counts[index_]};
}

FrequentItemsetStore::const_iterator&
FrequentItemsetStore::const_iterator::operator++() {
  ++index_;
  Settle();
  return *this;
}

FrequentItemsetStore::Ref FrequentItemsetStore::at(size_t pos) const {
  QARM_CHECK_LT(pos, size_);
  // The last level starting at or before `pos` that is non-empty there.
  const size_t level =
      static_cast<size_t>(std::upper_bound(level_begin_.begin(),
                                           level_begin_.end(), pos) -
                          level_begin_.begin()) -
      1;
  const size_t index = pos - level_begin_[level];
  return Ref{levels_[level].ids.key(index), level + 1,
             levels_[level].counts[index]};
}

void FrequentItemsetStore::AppendLevel(std::vector<int32_t> ids,
                                       std::vector<uint64_t> counts) {
  const size_t k = levels_.size() + 1;
  QARM_CHECK_EQ(ids.size(), counts.size() * k);
  if (k == 1) {
    for (size_t i = 0; i < ids.size(); ++i) {
      QARM_CHECK_GE(ids[i], 0);
      const size_t id = static_cast<size_t>(ids[i]);
      if (id >= item_slot_.size()) item_slot_.resize(id + 1, 0);
      item_slot_[id] = static_cast<uint32_t>(i + 1);
    }
  } else if (k > 2 && !counts.empty()) {
    levels_.back().ids.BuildIndex();
  }
  Level level{PackedKeyTable(k), std::move(counts)};
  level.ids.Assign(std::move(ids));
  level_begin_.push_back(size_);
  size_ += level.counts.size();
  levels_.push_back(std::move(level));
}

bool FrequentItemsetStore::FindCount(const int32_t* ids, size_t k,
                                     uint64_t* count) const {
  if (k == 0 || k > levels_.size()) return false;
  uint32_t index;
  if (k == 1) {
    const size_t id = static_cast<size_t>(ids[0]);
    if (ids[0] < 0 || id >= item_slot_.size() || item_slot_[id] == 0) {
      return false;
    }
    index = item_slot_[id] - 1;
  } else {
    index = level(k).ids.Find(ids);
    if (index == PackedKeyTable::kNotFound) return false;
  }
  *count = level(k).counts[index];
  return true;
}

FrequentItemsetStore FrequentItemsetStore::FromItemsets(
    const std::vector<FrequentItemset>& itemsets) {
  size_t max_k = 0;
  for (const FrequentItemset& f : itemsets) {
    QARM_CHECK(!f.items.empty());
    max_k = std::max(max_k, f.items.size());
  }
  std::vector<std::vector<int32_t>> ids(max_k);
  std::vector<std::vector<uint64_t>> counts(max_k);
  for (const FrequentItemset& f : itemsets) {
    const size_t k = f.items.size();
    ids[k - 1].insert(ids[k - 1].end(), f.items.begin(), f.items.end());
    counts[k - 1].push_back(f.count);
  }
  FrequentItemsetStore store;
  for (size_t k = 0; k < max_k; ++k) {
    store.AppendLevel(std::move(ids[k]), std::move(counts[k]));
  }
  return store;
}

}  // namespace qarm
