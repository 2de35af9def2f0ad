// The paper's item (Section 2): a triple <attribute, lo, hi> over the mapped
// integer domain denoting a quantitative attribute with a value in [lo, hi],
// or a categorical attribute with value lo (== hi). An itemset holds at most
// one item per attribute, sorted by attribute.
#ifndef QARM_CORE_ITEM_H_
#define QARM_CORE_ITEM_H_

#include <cstddef>
#include <cstdint>
#include <vector>


namespace qarm {

// <attribute x, l, u> in the mapped integer domain.
struct RangeItem {
  int32_t attr = 0;
  int32_t lo = 0;
  int32_t hi = 0;

  bool operator==(const RangeItem& other) const {
    return attr == other.attr && lo == other.lo && hi == other.hi;
  }
  // Total order: by attribute, then range.
  bool operator<(const RangeItem& other) const {
    if (attr != other.attr) return attr < other.attr;
    if (lo != other.lo) return lo < other.lo;
    return hi < other.hi;
  }

  // True if this item's range contains `other`'s (same attribute).
  bool Generalizes(const RangeItem& other) const {
    return attr == other.attr && lo <= other.lo && other.hi <= hi;
  }

  // Number of mapped values covered.
  int64_t Width() const { return static_cast<int64_t>(hi) - lo + 1; }
};

// Sorted-by-attribute set of items, at most one per attribute.
using RangeItemset = std::vector<RangeItem>;

// attributes(X): the sorted attribute ids of an itemset.
std::vector<int32_t> AttributesOf(const RangeItemset& itemset);

// True if `general` is a generalization of `special`: same attributes and
// every range of `general` contains the corresponding range of `special`
// (Section 2). Every itemset generalizes itself.
bool IsGeneralization(const RangeItemset& general,
                      const RangeItemset& special);

// True for a strict generalization (generalizes and differs).
bool IsStrictGeneralization(const RangeItemset& general,
                            const RangeItemset& special);

// X - X' when X' is a specialization of X and the set difference of the
// covered regions is itself a box expressible as an itemset: X' must differ
// from X in exactly one attribute and share one endpoint there (Section 4:
// "X - X' in I_R"). Returns false otherwise.
bool BoxDifference(const RangeItemset& x, const RangeItemset& x_prime,
                   RangeItemset* difference);

// True if the record (mapped values, one per attribute) supports the
// itemset.
bool RecordSupports(const int32_t* record, const RangeItemset& itemset);

}  // namespace qarm

#endif  // QARM_CORE_ITEM_H_
