// The final "greater-than-expected-value" interest measure of Section 4.
//
// A rule is interesting if it has no ancestors (generalizations) in the
// output, or if it is R-interesting with respect to each of its close
// ancestors among its interesting ancestors. R-interestingness of a rule
// w.r.t. an ancestor requires the support (and/or confidence, per the user's
// mode) to be at least R times the expectation derived from the ancestor,
// AND the combined itemset X ∪ Y to be R-interesting — which in turn checks
// every frequent specialization: subtracting the specialization must leave a
// difference that still beats R times its expected support (this is what
// rejects the "Decoy" interval of Figure 6).
#ifndef QARM_CORE_INTEREST_H_
#define QARM_CORE_INTEREST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/packed_key_table.h"
#include "core/frequent_items.h"
#include "core/item.h"
#include "core/options.h"
#include "core/rules.h"
#include "mining/itemset_store.h"

namespace qarm {

// Evaluates interest flags over a set of rules. The evaluator indexes the
// frequent itemsets (for the specialization-difference test) and uses the
// catalog's marginals for expected values.
class InterestEvaluator {
 public:
  // `catalog` and `frequent` must outlive the evaluator. `frequent` holds
  // item-id itemsets as produced by MineFrequentItemsets.
  InterestEvaluator(const ItemCatalog* catalog,
                    const FrequentItemsetStore* frequent,
                    double interest_level, InterestMode mode);

  // Sets rule.interesting on every rule: most-general rules first, each rule
  // tested against its close ancestors among the already-interesting ones.
  //
  // Rules only interact within their (antecedent attributes, consequent
  // attributes) group — an ancestor must match the attribute split exactly —
  // so with `num_threads > 1` (0 = all hardware cores) the groups are
  // evaluated concurrently on a worker pool. Every worker reads the same
  // wildcard index (built once at construction, immutable thereafter) and
  // writes flags only for its own group's rules, so the flags are identical
  // at any thread count. `threads_used`, when non-null, receives the
  // parallelism actually applied (1 when there was nothing to shard).
  void EvaluateRules(std::vector<QuantRule>* rules, size_t num_threads = 1,
                     size_t* threads_used = nullptr) const;

  // The final itemset measure (exposed for tests): support(z) must be at
  // least R times the expected support based on ẑ, and for every frequent
  // specialization z' of z whose difference z - z' is a box, the difference
  // must also be R-interesting w.r.t. ẑ.
  bool IsItemsetRInteresting(const RangeItemset& z, uint64_t z_count,
                             const RangeItemset& z_hat,
                             uint64_t z_hat_count) const;

  // Rule-level R-interestingness w.r.t. one ancestor (exposed for tests).
  bool IsRuleRInterestingWrt(const QuantRule& rule,
                             const QuantRule& ancestor) const;

 private:
  // An itemset of w items in attribute order, packed: `ids` holds catalog
  // item ids (-1 for a range that is no catalog item) and `bounds` the
  // (lo, hi) pairs.
  struct Packed {
    const int32_t* ids;
    const int32_t* bounds;
  };
  // What the rules of one attribute-split group share: the union's
  // attributes (w of them) and the union positions of the consequent.
  struct Shape {
    const int32_t* attrs;
    size_t w;
    const uint32_t* cons_pos;
    size_t num_cons;
  };

  // Rules over one attribute split, packed in union (attribute) order:
  // `attrs` and `cons_pos` are shared, `ids` and `bounds` hold each rule's
  // w ids and 2w bounds back to back.
  struct PackedRules {
    std::vector<int32_t> attrs;
    std::vector<uint32_t> cons_pos;
    std::vector<int32_t> ids;
    std::vector<int32_t> bounds;
    Shape shape() const {
      return {attrs.data(), attrs.size(), cons_pos.data(), cons_pos.size()};
    }
    Packed member(size_t m) const {
      return {ids.data() + m * attrs.size(),
              bounds.data() + m * attrs.size() * 2};
    }
  };
  // Packs `rules` (all with the attribute split of rules[0]).
  PackedRules PackRules(const std::vector<const QuantRule*>& rules) const;

  // Π Pr(z_i)/Pr(ẑ_i) over `positions` — the product of expectation.cc,
  // factor for factor. Position `replaced` (or none, when >= w) takes the
  // range [lo, hi] instead of z's.
  double MarginalRatio(const Shape& shape, const uint32_t* positions,
                       size_t num_positions, Packed z, Packed z_hat,
                       size_t replaced = ~size_t{0}, int32_t lo = 0,
                       int32_t hi = 0) const;
  bool ItemsetRInteresting(const Shape& shape, Packed z, uint64_t z_count,
                           Packed z_hat, uint64_t z_hat_count) const;
  bool RuleRInterestingWrt(const Shape& shape, Packed rule_items,
                           const QuantRule& rule, Packed ancestor_items,
                           const QuantRule& ancestor) const;

  const ItemCatalog* catalog_;
  const FrequentItemsetStore* frequent_;
  double level_;
  InterestMode mode_;
  size_t num_records_;

  // The specialization-difference test only involves frequent
  // specializations differing from z in exactly one attribute (otherwise
  // the difference is not a box). Per frequent level k, every itemset is
  // entered once per position p under its ids with ids[p] replaced by
  // ~attr(ids[p]) — so two itemsets share a key iff they are identical
  // except in the range at p. `members[offsets[key] .. offsets[key + 1])`
  // lists the level indices under each key. Built once at construction;
  // EvaluateRules workers share it read-only.
  struct WildcardLevel {
    PackedKeyTable keys;
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> members;
  };
  std::vector<WildcardLevel> wildcard_;  // index k; index 0 unused
};

}  // namespace qarm

#endif  // QARM_CORE_INTEREST_H_
