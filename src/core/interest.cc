#include "core/interest.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "common/thread_pool.h"

namespace qarm {
namespace {

constexpr double kEps = 1e-9;

// Below this many rules the grouping + evaluation is cheaper than waking a
// pool; the serial path is taken regardless of num_threads.
constexpr size_t kMinParallelRules = 64;

// Counting sort of entries e = 0 .. key_of.size() - 1 by key_of[e]: key
// g's entries, ascending, are members[offsets[g] .. offsets[g + 1]), each
// stored as e / stride.
void GroupByKey(const std::vector<uint32_t>& key_of, size_t num_keys,
                size_t stride, std::vector<uint32_t>* offsets,
                std::vector<uint32_t>* members) {
  offsets->assign(num_keys + 1, 0);
  for (uint32_t key : key_of) ++(*offsets)[key + 1];
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
  members->resize(key_of.size());
  for (size_t e = 0; e < key_of.size(); ++e) {
    (*members)[cursor[key_of[e]]++] = static_cast<uint32_t>(e / stride);
  }
}

}  // namespace

InterestEvaluator::InterestEvaluator(const ItemCatalog* catalog,
                                     const FrequentItemsetStore* frequent,
                                     double interest_level, InterestMode mode)
    : catalog_(catalog),
      frequent_(frequent),
      level_(interest_level),
      mode_(mode),
      num_records_(catalog->num_records()) {
  if (level_ <= 0.0) return;  // evaluator is a no-op: skip indexing
  wildcard_.resize(frequent_->num_levels() + 1);
  std::vector<int32_t> key;
  for (size_t k = 1; k <= frequent_->num_levels(); ++k) {
    const size_t n = frequent_->level_size(k);
    if (n == 0) continue;
    WildcardLevel& index = wildcard_[k];
    index.keys = PackedKeyTable(k);
    // Entry e = i * k + p: itemset i with position p wildcarded.
    std::vector<uint32_t> key_of(n * k);
    key.resize(k);
    for (size_t i = 0; i < n; ++i) {
      const int32_t* ids = frequent_->ids(k, i);
      for (size_t p = 0; p < k; ++p) {
        std::copy(ids, ids + k, key.begin());
        key[p] = ~catalog_->item(ids[p]).attr;
        key_of[i * k + p] = index.keys.Insert(key.data()).first;
      }
    }
    GroupByKey(key_of, index.keys.size(), k, &index.offsets,
               &index.members);
  }
}

double InterestEvaluator::MarginalRatio(const Shape& shape,
                                        const uint32_t* positions,
                                        size_t num_positions, Packed z,
                                        Packed z_hat, size_t replaced,
                                        int32_t lo, int32_t hi) const {
  double ratio = 1.0;
  for (size_t t = 0; t < num_positions; ++t) {
    const size_t i = positions != nullptr ? positions[t] : t;
    const int32_t attr = shape.attrs[i];
    const double numer =
        i == replaced ? catalog_->RangeSupport(attr, lo, hi)
                      : catalog_->RangeSupport(attr, z.bounds[2 * i],
                                               z.bounds[2 * i + 1]);
    const double denom = catalog_->RangeSupport(attr, z_hat.bounds[2 * i],
                                                z_hat.bounds[2 * i + 1]);
    if (denom <= 0.0) return 0.0;  // empty generalization: no expectation
    ratio *= numer / denom;
  }
  return ratio;
}

bool InterestEvaluator::ItemsetRInteresting(const Shape& shape, Packed z,
                                            uint64_t z_count, Packed z_hat,
                                            uint64_t z_hat_count) const {
  const size_t w = shape.w;
  const double n = static_cast<double>(num_records_);
  const double sup_z = static_cast<double>(z_count) / n;
  const double sup_z_hat = static_cast<double>(z_hat_count) / n;
  const double expected =
      MarginalRatio(shape, nullptr, w, z, z_hat) * sup_z_hat;
  if (sup_z + kEps < level_ * expected) return false;

  // Specialization-difference test: frequent specializations of z whose
  // difference is a box differ from z in exactly one position p, so they
  // all sit under z's key wildcarded at p.
  if (w >= wildcard_.size() || wildcard_[w].keys.empty()) return true;
  const WildcardLevel& index = wildcard_[w];
  constexpr size_t kInlineWidth = 16;
  int32_t inline_key[kInlineWidth];
  std::vector<int32_t> heap_key;
  int32_t* key = inline_key;
  if (w > kInlineWidth) {
    heap_key.resize(w);
    key = heap_key.data();
  }
  for (size_t p = 0; p < w; ++p) {
    bool keyed = true;
    for (size_t q = 0; q < w && keyed; ++q) {
      key[q] = q == p ? ~shape.attrs[p] : z.ids[q];
      keyed = q == p || z.ids[q] >= 0;  // a non-item range has no match
    }
    if (!keyed) continue;
    const uint32_t slot = index.keys.Find(key);
    if (slot == PackedKeyTable::kNotFound) continue;
    const int32_t z_lo = z.bounds[2 * p];
    const int32_t z_hi = z.bounds[2 * p + 1];
    for (uint32_t e = index.offsets[slot]; e < index.offsets[slot + 1];
         ++e) {
      const uint32_t spec = index.members[e];
      const RangeItem& inner = catalog_->item(frequent_->ids(w, spec)[p]);
      // z must strictly generalize the specialization at p (everywhere
      // else the two are equal), leaving an upper or lower piece.
      if (inner.lo < z_lo || inner.hi > z_hi) continue;
      int32_t lo;
      int32_t hi;
      if (inner.lo == z_lo && inner.hi == z_hi) {
        continue;  // z itself
      } else if (inner.lo == z_lo) {
        lo = inner.hi + 1;
        hi = z_hi;
      } else if (inner.hi == z_hi) {
        lo = z_lo;
        hi = inner.lo - 1;
      } else {
        continue;  // interior sub-range: the difference is two boxes
      }
      const uint64_t spec_count = frequent_->count(w, spec);
      QARM_CHECK_GE(z_count, spec_count);
      const double sup_diff = static_cast<double>(z_count - spec_count) / n;
      const double diff_expected =
          MarginalRatio(shape, nullptr, w, z, z_hat, p, lo, hi) * sup_z_hat;
      if (sup_diff + kEps < level_ * diff_expected) return false;
    }
  }
  return true;
}

bool InterestEvaluator::RuleRInterestingWrt(const Shape& shape,
                                            Packed rule_items,
                                            const QuantRule& rule,
                                            Packed ancestor_items,
                                            const QuantRule& ancestor) const {
  const double expected_support =
      MarginalRatio(shape, nullptr, shape.w, rule_items, ancestor_items) *
      ancestor.support;
  const double expected_confidence =
      MarginalRatio(shape, shape.cons_pos, shape.num_cons, rule_items,
                    ancestor_items) *
      ancestor.confidence;
  const bool support_ok = rule.support + kEps >= level_ * expected_support;
  const bool confidence_ok =
      rule.confidence + kEps >= level_ * expected_confidence;
  const bool rule_ok = mode_ == InterestMode::kSupportOrConfidence
                           ? (support_ok || confidence_ok)
                           : (support_ok && confidence_ok);
  if (!rule_ok) return false;
  return ItemsetRInteresting(shape, rule_items, rule.count, ancestor_items,
                             ancestor.count);
}

InterestEvaluator::PackedRules InterestEvaluator::PackRules(
    const std::vector<const QuantRule*>& rules) const {
  PackedRules packed;
  const QuantRule& first = *rules[0];
  const size_t na = first.antecedent.size();
  const size_t w = na + first.consequent.size();
  // The union X ∪ Y in attribute order: source[j] indexes position j's item
  // in antecedent-then-consequent order.
  std::vector<uint32_t> source;
  for (size_t a = 0, c = 0; a + c < w;) {
    const bool from_antecedent =
        c == first.consequent.size() ||
        (a < na && first.antecedent[a].attr < first.consequent[c].attr);
    if (from_antecedent) {
      packed.attrs.push_back(first.antecedent[a].attr);
      source.push_back(static_cast<uint32_t>(a++));
    } else {
      packed.cons_pos.push_back(static_cast<uint32_t>(packed.attrs.size()));
      packed.attrs.push_back(first.consequent[c].attr);
      source.push_back(static_cast<uint32_t>(na + c++));
    }
  }
  packed.ids.resize(rules.size() * w);
  packed.bounds.resize(rules.size() * w * 2);
  for (size_t m = 0; m < rules.size(); ++m) {
    const QuantRule& rule = *rules[m];
    QARM_CHECK_EQ(rule.antecedent.size(), na);
    QARM_CHECK_EQ(rule.consequent.size() + na, w);
    for (size_t j = 0; j < w; ++j) {
      const RangeItem& item = source[j] < na
                                  ? rule.antecedent[source[j]]
                                  : rule.consequent[source[j] - na];
      QARM_CHECK_EQ(item.attr, packed.attrs[j]);
      packed.ids[m * w + j] = catalog_->FindItem(item);
      packed.bounds[(m * w + j) * 2] = item.lo;
      packed.bounds[(m * w + j) * 2 + 1] = item.hi;
    }
  }
  return packed;
}

bool InterestEvaluator::IsItemsetRInteresting(const RangeItemset& z,
                                              uint64_t z_count,
                                              const RangeItemset& z_hat,
                                              uint64_t z_hat_count) const {
  // An itemset packs as a rule with an empty consequent.
  QuantRule z_rule;
  z_rule.antecedent = z;
  QuantRule hat_rule;
  hat_rule.antecedent = z_hat;
  const PackedRules packed = PackRules({&z_rule, &hat_rule});
  return ItemsetRInteresting(packed.shape(), packed.member(0), z_count,
                             packed.member(1), z_hat_count);
}

bool InterestEvaluator::IsRuleRInterestingWrt(const QuantRule& rule,
                                              const QuantRule& ancestor) const {
  const PackedRules packed = PackRules({&rule, &ancestor});
  return RuleRInterestingWrt(packed.shape(), packed.member(0), rule,
                             packed.member(1), ancestor);
}

void InterestEvaluator::EvaluateRules(std::vector<QuantRule>* rules,
                                      size_t num_threads,
                                      size_t* threads_used) const {
  if (threads_used != nullptr) *threads_used = 1;
  if (level_ <= 0.0) {
    for (QuantRule& rule : *rules) rule.interesting = true;
    return;
  }

  // Group rules by (antecedent attributes, consequent attributes): ancestors
  // must match the attribute split exactly. The packed signature is the
  // antecedent's attributes, -1, the consequent's, padded with -2 to the
  // widest rule; members are listed in rule order. The groups are fully
  // independent afterwards.
  size_t max_width = 0;
  for (const QuantRule& rule : *rules) {
    max_width =
        std::max(max_width, rule.antecedent.size() + rule.consequent.size());
  }
  PackedKeyTable signatures(max_width + 1);
  std::vector<int32_t> signature(max_width + 1);
  std::vector<uint32_t> group_of(rules->size());
  for (size_t i = 0; i < rules->size(); ++i) {
    const QuantRule& rule = (*rules)[i];
    size_t w = 0;
    for (const RangeItem& item : rule.antecedent) signature[w++] = item.attr;
    signature[w++] = -1;
    for (const RangeItem& item : rule.consequent) signature[w++] = item.attr;
    std::fill(signature.begin() + static_cast<std::ptrdiff_t>(w),
              signature.end(), -2);
    group_of[i] = signatures.Insert(signature.data()).first;
  }
  const size_t num_groups = signatures.size();
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> members;
  GroupByKey(group_of, num_groups, 1, &offsets, &members);

  // Evaluates one group start to finish. Writes only its own members'
  // `interesting` flags, reads only its own members and the evaluator's
  // immutable state — groups never touch each other, so any schedule
  // produces identical flags.
  auto evaluate_group = [&](size_t g) {
    const uint32_t* member = members.data() + offsets[g];
    const size_t count = offsets[g + 1] - offsets[g];
    std::vector<const QuantRule*> group_rules(count);
    for (size_t m = 0; m < count; ++m) group_rules[m] = &(*rules)[member[m]];
    const PackedRules packed_rules = PackRules(group_rules);
    const Shape shape = packed_rules.shape();
    const size_t w = shape.w;
    const std::vector<int32_t>& bounds = packed_rules.bounds;

    // The covered volume of each member: the product of its range widths
    // (both sides).
    std::vector<double> volume(count);
    for (size_t m = 0; m < count; ++m) {
      double v = 1.0;
      for (const RangeItem& item : group_rules[m]->antecedent) {
        v *= static_cast<double>(item.Width());
      }
      for (const RangeItem& item : group_rules[m]->consequent) {
        v *= static_cast<double>(item.Width());
      }
      volume[m] = v;
    }

    // a strictly generalizes b (as a rule): every range of a contains b's
    // at the same position, and some range differs.
    auto generalizes = [&](size_t a, size_t b) {
      const int32_t* ba = bounds.data() + a * w * 2;
      const int32_t* bb = bounds.data() + b * w * 2;
      bool differs = false;
      for (size_t t = 0; t < 2 * w; t += 2) {
        if (ba[t] > bb[t] || bb[t + 1] > ba[t + 1]) return false;
        differs |= ba[t] != bb[t] || ba[t + 1] != bb[t + 1];
      }
      return differs;
    };

    // A strict generalization always has strictly larger volume, so
    // descending volume is a topological order over the generalization DAG.
    // Index tie-break: equal-volume rules are never mutually ancestral, so
    // the tie order cannot change any flag — it only pins the schedule.
    std::vector<uint32_t> order(count);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (volume[a] != volume[b]) return volume[a] > volume[b];
      return a < b;
    });

    // Only the *interesting* ancestors processed so far matter: a rule with
    // no ancestors is interesting by definition, and a rule whose ancestors
    // are all uninteresting passes vacuously (its close interesting
    // ancestor set is empty). So uninteresting rules never need indexing.
    std::vector<uint32_t> interesting_so_far;  // members, volume desc
    std::vector<uint32_t> ancestors;           // scratch, volume desc
    std::vector<uint32_t> close;               // scratch, volume asc
    for (uint32_t m : order) {
      ancestors.clear();
      for (uint32_t candidate : interesting_so_far) {
        if (generalizes(candidate, m)) ancestors.push_back(candidate);
      }
      // Close = most specialized: the minimal elements of the ancestor set
      // under the generalization order. Sweep ancestors by *ascending*
      // volume (most specialized first): an ancestor is close iff it does
      // not strictly generalize any close ancestor already found —
      // checking the close set alone suffices because generalization is
      // transitive (if A generalizes a dropped B, it also generalizes the
      // closer ancestor that disqualified B). This replaces the all-pairs
      // O(|ancestors|²) scan with O(|ancestors| · |close|), and |close| is
      // small (mutually incomparable rules over the same attributes).
      const QuantRule& rule = (*rules)[member[m]];
      bool interesting = true;
      close.clear();
      for (size_t a = ancestors.size(); a-- > 0 && interesting;) {
        bool dominated = false;
        for (uint32_t c : close) {
          if (generalizes(ancestors[a], c)) {
            dominated = true;
            break;
          }
        }
        if (dominated) continue;  // not a close ancestor
        close.push_back(ancestors[a]);
        if (!RuleRInterestingWrt(shape, packed_rules.member(m), rule,
                                 packed_rules.member(ancestors[a]),
                                 (*rules)[member[ancestors[a]]])) {
          interesting = false;
        }
      }
      (*rules)[member[m]].interesting = interesting;
      if (interesting) interesting_so_far.push_back(m);
    }
  };

  const size_t threads = rules->size() >= kMinParallelRules
                             ? std::min(ResolveNumThreads(num_threads),
                                        num_groups)
                             : 1;
  if (threads <= 1) {
    for (size_t g = 0; g < num_groups; ++g) evaluate_group(g);
    return;
  }
  if (threads_used != nullptr) *threads_used = threads;

  // One task per group, biggest first: group costs are quadratic in member
  // count, so starting the heavy ones early lets the pool's dynamic task
  // claiming backfill the small ones behind them.
  std::vector<uint32_t> group_list(num_groups);
  std::iota(group_list.begin(), group_list.end(), 0u);
  std::stable_sort(group_list.begin(), group_list.end(),
                   [&](uint32_t a, uint32_t b) {
                     return offsets[a + 1] - offsets[a] >
                            offsets[b + 1] - offsets[b];
                   });
  ThreadPool pool(threads);
  pool.ParallelFor(group_list.size(),
                   [&](size_t i) { evaluate_group(group_list[i]); });
}

}  // namespace qarm
