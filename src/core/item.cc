#include "core/item.h"

namespace qarm {

std::vector<int32_t> AttributesOf(const RangeItemset& itemset) {
  std::vector<int32_t> attrs;
  attrs.reserve(itemset.size());
  for (const RangeItem& item : itemset) attrs.push_back(item.attr);
  return attrs;
}

bool IsGeneralization(const RangeItemset& general,
                      const RangeItemset& special) {
  if (general.size() != special.size()) return false;
  for (size_t i = 0; i < general.size(); ++i) {
    if (!general[i].Generalizes(special[i])) return false;
  }
  return true;
}

bool IsStrictGeneralization(const RangeItemset& general,
                            const RangeItemset& special) {
  return IsGeneralization(general, special) && general != special;
}

bool BoxDifference(const RangeItemset& x, const RangeItemset& x_prime,
                   RangeItemset* difference) {
  if (!IsStrictGeneralization(x, x_prime)) return false;
  // Find the attributes where the ranges differ.
  size_t differing = x.size();
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].lo != x_prime[i].lo || x[i].hi != x_prime[i].hi) {
      if (differing != x.size()) return false;  // more than one differs
      differing = i;
    }
  }
  if (differing == x.size()) return false;  // identical (guarded above)
  const RangeItem& outer = x[differing];
  const RangeItem& inner = x_prime[differing];
  RangeItem diff_item;
  diff_item.attr = outer.attr;
  if (inner.lo == outer.lo) {
    // Remainder is the upper piece.
    diff_item.lo = inner.hi + 1;
    diff_item.hi = outer.hi;
  } else if (inner.hi == outer.hi) {
    // Remainder is the lower piece.
    diff_item.lo = outer.lo;
    diff_item.hi = inner.lo - 1;
  } else {
    return false;  // interior sub-range: difference splits into two boxes
  }
  *difference = x;
  (*difference)[differing] = diff_item;
  return true;
}

bool RecordSupports(const int32_t* record, const RangeItemset& itemset) {
  for (const RangeItem& item : itemset) {
    int32_t v = record[item.attr];
    if (v < item.lo || v > item.hi) return false;
  }
  return true;
}

}  // namespace qarm
