// RuleCatalog — the immutable, shared, index-backed view of a mined rule
// set that the serving engine answers queries from. Built once at load
// time from a QRS file (or an in-memory StoredRuleSet); every structure is
// read-only afterwards, so any number of server threads query it without
// locks.
//
// Three query shapes, three structures:
//
//   * "Which rules match this record?" — a per-attribute interval index
//     over the rules' <attr, lo, hi> items. The default structure is a
//     sorted-endpoint grid in CSR form: for each mapped value v of the
//     attribute, a contiguous run of (rule, side) entries whose item
//     covers v, so a stab is one offset lookup. Mapped domains are small
//     (they are the paper's base intervals / category ids), which makes
//     the grid's sum-of-widths memory practical; an attribute whose grid
//     would exceed the build budget falls back to a sorted-by-lo list
//     scanned with the same semantics (the oracle the tests compare
//     against).
//
//   * "Top-K rules by <measure> (for attribute X)" — sorted views, built
//     at load time: one global rule ordering per measure, plus one per
//     (attribute, measure) over the rules that mention the attribute.
//     Orders are total (measure desc, rule id asc), so results are
//     deterministic.
//
//   * Paged browsing — rules in id order behind filter predicates
//     (min confidence/support/lift, attribute, interesting-only).
//
// Matching follows the paper's record model: a record holds at most one
// value per attribute, and a record that lacks an attribute supports no
// item over it (so a rule mentioning that attribute cannot match).
#ifndef QARM_SERVE_RULE_CATALOG_H_
#define QARM_SERVE_RULE_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "partition/item_labels.h"
#include "storage/rules_format.h"

namespace qarm {

// The measures a rule can be ranked by.
enum class RankMeasure { kConfidence = 0, kSupport = 1, kLift = 2 };
inline constexpr size_t kNumRankMeasures = 3;

// "confidence" | "support" | "lift" (as used by /topk?metric=...).
Result<RankMeasure> ParseRankMeasure(const std::string& name);
const char* RankMeasureName(RankMeasure measure);

// What "match" means for a rule and a record.
enum class MatchMode {
  kRule,        // the record supports antecedent ∪ consequent
  kAntecedent,  // the record supports the antecedent (the rule "fires")
};

// Reusable per-thread scratch for MatchRules. Between calls every counter
// is zero (MatchRules restores the invariant before returning), so one
// scratch serves catalogs of any size.
struct MatchScratch {
  std::vector<uint16_t> total;  // matched items per touched rule
  std::vector<uint16_t> ante;   // matched antecedent items per touched rule
  std::vector<uint32_t> touched;
};

// Browse filter predicates; a rule must pass all of them.
struct BrowseFilter {
  double min_confidence = 0.0;
  double min_support = 0.0;
  double min_lift = 0.0;
  int32_t attr = -1;  // -1 = any; otherwise the rule must mention it
  bool interesting_only = false;
};

// Build/load knobs.
struct RuleCatalogOptions {
  // Per-attribute cap on grid cells (sum of item widths). Above it the
  // attribute's index falls back to the sorted-scan list. The default
  // admits every realistic rule set; tests shrink it to force the
  // fallback.
  size_t max_grid_cells_per_attr = size_t{1} << 22;
};

// Sizes and timings of the built indexes, surfaced in /statz.
struct RuleCatalogStats {
  size_t num_rules = 0;
  size_t num_attributes = 0;
  uint64_t num_records = 0;      // records the rules were mined from
  size_t interval_entries = 0;   // (rule, side) entries across attributes
  size_t grid_cells = 0;         // CSR cells across grid-indexed attributes
  size_t grid_attributes = 0;    // attributes using the grid
  size_t scan_attributes = 0;    // attributes on the sorted-scan fallback
  size_t index_bytes = 0;        // interval index + top-K views
  double build_seconds = 0.0;

  // The /statz `catalog` object (storage/stats_fields.h).
  static void Fields(auto&& f, auto&... s) {
    f("num_rules", s.num_rules...);
    f("num_attributes", s.num_attributes...);
    f("num_records", s.num_records...);
    f("interval_entries", s.interval_entries...);
    f("grid_cells", s.grid_cells...);
    f("grid_attributes", s.grid_attributes...);
    f("scan_attributes", s.scan_attributes...);
    f("index_bytes", s.index_bytes...);
    f("build_seconds", s.build_seconds...);
  }
};

class RuleCatalog {
 public:
  // Reads, validates, and indexes the QRS file at `path`.
  static Result<std::shared_ptr<const RuleCatalog>> Load(
      const std::string& path, const RuleCatalogOptions& options = {});

  // Indexes an in-memory rule set (takes ownership).
  static Result<std::shared_ptr<const RuleCatalog>> Build(
      StoredRuleSet set, const RuleCatalogOptions& options = {});

  // The label table points into the catalog's own attributes.
  RuleCatalog(const RuleCatalog&) = delete;
  RuleCatalog& operator=(const RuleCatalog&) = delete;

  const std::vector<StoredRule>& rules() const { return set_.rules; }
  const std::vector<MappedAttribute>& attributes() const {
    return set_.attributes;
  }
  uint64_t num_records() const { return set_.num_records; }
  double minsup() const { return set_.minsup; }
  double minconf() const { return set_.minconf; }
  const RuleCatalogStats& stats() const { return stats_; }
  // Every item of every rule, labelled once at build time.
  const ItemLabels& labels() const { return labels_; }

  // Attribute index by name; NotFound for unknown names.
  Result<int32_t> AttributeIndex(const std::string& name) const;

  // Maps one raw field value ("25", "Yes") to the attribute's mapped id.
  // A categorical value is looked up by its exact text among the labels,
  // which are distinct strings. A numeric value takes the base interval
  // AssignToInterval picks, if that interval contains it. A numeric value
  // in a gap between intervals or beyond them, and a label the attribute
  // does not have, map to kMissingValue — such a record supports no item
  // over the attribute, exactly like a record that lacks it.
  // InvalidArgument only for type errors (non-numeric text for a
  // quantitative attribute).
  Result<int32_t> MapValue(int32_t attr, const std::string& raw) const;

  // A query record: one mapped value per attribute, kMissingValue where
  // the record lacks the attribute. Built from (name, raw value) fields.
  Result<std::vector<int32_t>> ParseRecord(
      const std::vector<std::pair<std::string, std::string>>& fields) const;

  // Appends to `out` the ids of every rule the record matches under
  // `mode`, in ascending id order. `record` must hold one mapped value
  // per attribute.
  void MatchRules(const std::vector<int32_t>& record, MatchMode mode,
                  MatchScratch* scratch, std::vector<uint32_t>* out) const;

  // The first `k` rule ids of the `measure` ranking — global when `attr`
  // is -1, else among rules mentioning the attribute — optionally
  // restricted to interesting rules.
  std::vector<uint32_t> TopK(RankMeasure measure, int32_t attr, size_t k,
                             bool interesting_only) const;

  // Rules passing `filter`, in id order, skipping `offset` of them and
  // returning at most `limit`. `total`, when non-null, receives the
  // filtered count regardless of the page.
  std::vector<uint32_t> Browse(const BrowseFilter& filter, size_t offset,
                               size_t limit, size_t* total) const;

  // Rank value of one rule under one measure.
  double Measure(uint32_t rule_id, RankMeasure measure) const;

 private:
  RuleCatalog() = default;

  // Interval index of one attribute. Entries pack (rule_id << 1 | is_ante)
  // into a u32; rule ids are bounded to 31 bits by the QRS reader.
  struct AttrIndex {
    bool grid = false;
    // Grid: CSR over mapped values; entries for value v are
    // entries[offsets[v] .. offsets[v + 1]).
    std::vector<uint32_t> offsets;
    // Grid: covering entries per value. Fallback: all entries sorted by
    // item lo (parallel to los/his).
    std::vector<uint32_t> entries;
    std::vector<int32_t> los;  // fallback only
    std::vector<int32_t> his;  // fallback only
  };

  void BuildIndexes(const RuleCatalogOptions& options);
  void StabInto(int32_t attr, int32_t value, MatchScratch* scratch) const;
  bool RuleMentions(uint32_t rule_id, int32_t attr) const;

  StoredRuleSet set_;
  RuleCatalogStats stats_;
  ItemLabels labels_{&set_.attributes};

  std::unordered_map<std::string, int32_t> attr_by_name_;
  // Per categorical attribute: label -> mapped id (empty for quantitative).
  std::vector<std::unordered_map<std::string, int32_t>> label_ids_;
  std::vector<AttrIndex> interval_index_;
  // Sorted views: global_order_[measure] ranks every rule;
  // attr_order_[measure][attr] ranks the rules mentioning `attr`.
  std::vector<uint32_t> global_order_[kNumRankMeasures];
  std::vector<std::vector<uint32_t>> attr_order_[kNumRankMeasures];
};

}  // namespace qarm

#endif  // QARM_SERVE_RULE_CATALOG_H_
