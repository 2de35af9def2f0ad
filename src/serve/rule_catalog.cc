#include "serve/rule_catalog.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "partition/mapped_table.h"
#include "partition/partitioner.h"

namespace qarm {
namespace {

inline uint32_t PackEntry(uint32_t rule_id, bool is_ante) {
  return (rule_id << 1) | (is_ante ? 1u : 0u);
}
inline uint32_t EntryRule(uint32_t entry) { return entry >> 1; }
inline bool EntryIsAnte(uint32_t entry) { return (entry & 1u) != 0; }

}  // namespace

Result<RankMeasure> ParseRankMeasure(const std::string& name) {
  if (name == "confidence") return RankMeasure::kConfidence;
  if (name == "support") return RankMeasure::kSupport;
  if (name == "lift") return RankMeasure::kLift;
  return Status::InvalidArgument("unknown measure: " + name +
                                 " (expected confidence|support|lift)");
}

const char* RankMeasureName(RankMeasure measure) {
  switch (measure) {
    case RankMeasure::kConfidence:
      return "confidence";
    case RankMeasure::kSupport:
      return "support";
    case RankMeasure::kLift:
      return "lift";
  }
  return "?";
}

Result<std::shared_ptr<const RuleCatalog>> RuleCatalog::Load(
    const std::string& path, const RuleCatalogOptions& options) {
  QARM_ASSIGN_OR_RETURN(StoredRuleSet set, ReadRuleSet(path));
  return Build(std::move(set), options);
}

Result<std::shared_ptr<const RuleCatalog>> RuleCatalog::Build(
    StoredRuleSet set, const RuleCatalogOptions& options) {
  auto catalog = std::shared_ptr<RuleCatalog>(new RuleCatalog());
  catalog->set_ = std::move(set);
  catalog->BuildIndexes(options);
  return std::shared_ptr<const RuleCatalog>(std::move(catalog));
}

void RuleCatalog::BuildIndexes(const RuleCatalogOptions& options) {
  Timer timer;
  const std::vector<StoredRule>& rules = set_.rules;
  const std::vector<MappedAttribute>& attrs = set_.attributes;
  const size_t num_attrs = attrs.size();

  attr_by_name_.reserve(num_attrs);
  label_ids_.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    attr_by_name_.emplace(attrs[a].name, static_cast<int32_t>(a));
    for (size_t id = 0; id < attrs[a].labels.size(); ++id) {
      label_ids_[a].emplace(attrs[a].labels[id], static_cast<int32_t>(id));
    }
  }

  // --- Interval index ------------------------------------------------------
  // Pass 1 over the rules: per attribute, how many (rule, side) entries and
  // how many grid cells (sum of item widths) they would cost. Each item is
  // labelled here too, so serving threads only read the label table.
  std::vector<size_t> attr_entries(num_attrs, 0);
  std::vector<size_t> attr_cells(num_attrs, 0);
  auto tally = [&](const std::vector<StoredItem>& side) {
    for (const StoredItem& item : side) {
      const size_t a = static_cast<size_t>(item.attr);
      ++attr_entries[a];
      attr_cells[a] +=
          static_cast<size_t>(item.hi) - static_cast<size_t>(item.lo) + 1;
      labels_.Get(item.attr, item.lo, item.hi);
    }
  };
  for (const StoredRule& rule : rules) {
    tally(rule.antecedent);
    tally(rule.consequent);
  }

  interval_index_.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    AttrIndex& index = interval_index_[a];
    index.grid = attr_cells[a] <= options.max_grid_cells_per_attr;
    stats_.interval_entries += attr_entries[a];
    if (index.grid) {
      ++stats_.grid_attributes;
      stats_.grid_cells += attr_cells[a];
      // CSR counting pass: offsets[v + 1] accumulates covering items.
      index.offsets.assign(attrs[a].domain_size() + 1, 0);
    } else {
      ++stats_.scan_attributes;
      index.entries.reserve(attr_entries[a]);
      index.los.reserve(attr_entries[a]);
      index.his.reserve(attr_entries[a]);
    }
  }

  auto count_item = [&](const StoredItem& item) {
    AttrIndex& index = interval_index_[static_cast<size_t>(item.attr)];
    if (!index.grid) return;
    for (int32_t v = item.lo; v <= item.hi; ++v) {
      ++index.offsets[static_cast<size_t>(v) + 1];
    }
  };
  for (const StoredRule& rule : rules) {
    for (const StoredItem& item : rule.antecedent) count_item(item);
    for (const StoredItem& item : rule.consequent) count_item(item);
  }
  // Counts were staged at offsets[v + 1], so an inclusive scan turns the
  // array into CSR starts: offsets[v] = sum of counts of values < v.
  for (AttrIndex& index : interval_index_) {
    if (!index.grid) continue;
    size_t total = 0;
    for (uint32_t& offset : index.offsets) {
      total += offset;
      offset = static_cast<uint32_t>(total);
    }
    index.entries.resize(total);
  }
  // Placement pass. Rules are visited in id order, so every grid cell ends
  // up sorted by rule id without an explicit sort; `cursor` tracks the next
  // free slot per cell.
  std::vector<std::vector<uint32_t>> cursors(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    if (interval_index_[a].grid) {
      cursors[a].assign(interval_index_[a].offsets.begin(),
                        interval_index_[a].offsets.end() - 1);
    }
  }
  auto place_item = [&](const StoredItem& item, uint32_t rule_id,
                        bool is_ante) {
    const size_t a = static_cast<size_t>(item.attr);
    AttrIndex& index = interval_index_[a];
    const uint32_t packed = PackEntry(rule_id, is_ante);
    if (index.grid) {
      for (int32_t v = item.lo; v <= item.hi; ++v) {
        index.entries[cursors[a][static_cast<size_t>(v)]++] = packed;
      }
    } else {
      index.entries.push_back(packed);
      index.los.push_back(item.lo);
      index.his.push_back(item.hi);
    }
  };
  for (size_t r = 0; r < rules.size(); ++r) {
    const uint32_t rule_id = static_cast<uint32_t>(r);
    for (const StoredItem& item : rules[r].antecedent) {
      place_item(item, rule_id, /*is_ante=*/true);
    }
    for (const StoredItem& item : rules[r].consequent) {
      place_item(item, rule_id, /*is_ante=*/false);
    }
  }
  // Fallback attributes scan entries in lo order (stable, so equal-lo runs
  // stay in rule order and stabs stay deterministic).
  for (AttrIndex& index : interval_index_) {
    if (index.grid) continue;
    std::vector<uint32_t> order(index.entries.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t x, uint32_t y) {
                       return index.los[x] < index.los[y];
                     });
    AttrIndex sorted;
    sorted.grid = false;
    sorted.entries.reserve(order.size());
    sorted.los.reserve(order.size());
    sorted.his.reserve(order.size());
    for (uint32_t i : order) {
      sorted.entries.push_back(index.entries[i]);
      sorted.los.push_back(index.los[i]);
      sorted.his.push_back(index.his[i]);
    }
    index = std::move(sorted);
  }

  // --- Top-K sorted views --------------------------------------------------
  std::vector<std::vector<uint32_t>> incidence(num_attrs);
  for (size_t r = 0; r < rules.size(); ++r) {
    for (const StoredItem& item : rules[r].antecedent) {
      incidence[static_cast<size_t>(item.attr)].push_back(
          static_cast<uint32_t>(r));
    }
    for (const StoredItem& item : rules[r].consequent) {
      incidence[static_cast<size_t>(item.attr)].push_back(
          static_cast<uint32_t>(r));
    }
  }
  for (size_t m = 0; m < kNumRankMeasures; ++m) {
    const RankMeasure measure = static_cast<RankMeasure>(m);
    auto better = [&](uint32_t x, uint32_t y) {
      const double mx = Measure(x, measure);
      const double my = Measure(y, measure);
      if (mx != my) return mx > my;
      return x < y;
    };
    global_order_[m].resize(rules.size());
    for (size_t r = 0; r < rules.size(); ++r) {
      global_order_[m][r] = static_cast<uint32_t>(r);
    }
    std::sort(global_order_[m].begin(), global_order_[m].end(), better);
    attr_order_[m].resize(num_attrs);
    for (size_t a = 0; a < num_attrs; ++a) {
      attr_order_[m][a] = incidence[a];
      std::sort(attr_order_[m][a].begin(), attr_order_[m][a].end(), better);
    }
  }

  // --- Size accounting -----------------------------------------------------
  stats_.num_rules = rules.size();
  stats_.num_attributes = num_attrs;
  stats_.num_records = set_.num_records;
  size_t bytes = 0;
  for (const AttrIndex& index : interval_index_) {
    bytes += index.offsets.size() * sizeof(uint32_t);
    bytes += index.entries.size() * sizeof(uint32_t);
    bytes += (index.los.size() + index.his.size()) * sizeof(int32_t);
  }
  for (size_t m = 0; m < kNumRankMeasures; ++m) {
    bytes += global_order_[m].size() * sizeof(uint32_t);
    for (const std::vector<uint32_t>& view : attr_order_[m]) {
      bytes += view.size() * sizeof(uint32_t);
    }
  }
  stats_.index_bytes = bytes;
  stats_.build_seconds = timer.ElapsedSeconds();
}

double RuleCatalog::Measure(uint32_t rule_id, RankMeasure measure) const {
  const StoredRule& rule = set_.rules[rule_id];
  switch (measure) {
    case RankMeasure::kConfidence:
      return rule.confidence;
    case RankMeasure::kSupport:
      return rule.support;
    case RankMeasure::kLift:
      return rule.lift;
  }
  return 0.0;
}

Result<int32_t> RuleCatalog::AttributeIndex(const std::string& name) const {
  auto it = attr_by_name_.find(name);
  if (it == attr_by_name_.end()) {
    return Status::NotFound("unknown attribute: " + name);
  }
  return it->second;
}

Result<int32_t> RuleCatalog::MapValue(int32_t attr,
                                      const std::string& raw) const {
  const MappedAttribute& meta = set_.attributes[static_cast<size_t>(attr)];
  if (meta.kind == AttributeKind::kCategorical) {
    auto it = label_ids_[static_cast<size_t>(attr)].find(raw);
    if (it == label_ids_[static_cast<size_t>(attr)].end()) {
      return kMissingValue;  // no item over this attribute can match
    }
    return it->second;
  }
  Result<double> value = ParseDouble(raw);
  if (!value.ok()) {
    return Status::InvalidArgument("attribute " + meta.name +
                                   " is quantitative; bad value '" + raw +
                                   "'");
  }
  // The interval the mapper would assign the value to must also contain
  // it: gaps between intervals map to missing, as out-of-range values do.
  const int64_t id = AssignToInterval(meta.intervals, *value);
  if (id < 0 || !meta.intervals[static_cast<size_t>(id)].Contains(*value)) {
    return kMissingValue;
  }
  return static_cast<int32_t>(id);
}

Result<std::vector<int32_t>> RuleCatalog::ParseRecord(
    const std::vector<std::pair<std::string, std::string>>& fields) const {
  std::vector<int32_t> record(set_.attributes.size(), kMissingValue);
  for (const auto& [name, raw] : fields) {
    QARM_ASSIGN_OR_RETURN(int32_t attr, AttributeIndex(name));
    QARM_ASSIGN_OR_RETURN(record[static_cast<size_t>(attr)],
                          MapValue(attr, raw));
  }
  return record;
}

void RuleCatalog::StabInto(int32_t attr, int32_t value,
                           MatchScratch* scratch) const {
  const AttrIndex& index = interval_index_[static_cast<size_t>(attr)];
  auto bump = [&](uint32_t entry) {
    const uint32_t rule_id = EntryRule(entry);
    if (scratch->total[rule_id] == 0) scratch->touched.push_back(rule_id);
    ++scratch->total[rule_id];
    if (EntryIsAnte(entry)) ++scratch->ante[rule_id];
  };
  if (index.grid) {
    const size_t v = static_cast<size_t>(value);
    for (size_t i = index.offsets[v]; i < index.offsets[v + 1]; ++i) {
      bump(index.entries[i]);
    }
    return;
  }
  // Fallback: entries sorted by lo; stop at the first lo beyond the value.
  for (size_t i = 0; i < index.entries.size() && index.los[i] <= value;
       ++i) {
    if (index.his[i] >= value) bump(index.entries[i]);
  }
}

void RuleCatalog::MatchRules(const std::vector<int32_t>& record,
                             MatchMode mode, MatchScratch* scratch,
                             std::vector<uint32_t>* out) const {
  const size_t num_rules = set_.rules.size();
  if (scratch->total.size() < num_rules) {
    scratch->total.resize(num_rules, 0);
    scratch->ante.resize(num_rules, 0);
  }
  scratch->touched.clear();
  for (size_t a = 0; a < record.size() && a < set_.attributes.size(); ++a) {
    const int32_t value = record[a];
    if (value == kMissingValue) continue;
    if (value < 0 ||
        static_cast<size_t>(value) >= set_.attributes[a].domain_size()) {
      continue;  // outside the mapped domain: supports no item
    }
    StabInto(static_cast<int32_t>(a), value, scratch);
  }
  for (uint32_t rule_id : scratch->touched) {
    const StoredRule& rule = set_.rules[rule_id];
    const bool matched =
        mode == MatchMode::kRule
            ? scratch->total[rule_id] == rule.num_items()
            : scratch->ante[rule_id] == rule.antecedent.size();
    if (matched) out->push_back(rule_id);
    scratch->total[rule_id] = 0;
    scratch->ante[rule_id] = 0;
  }
  std::sort(out->begin(), out->end());
}

std::vector<uint32_t> RuleCatalog::TopK(RankMeasure measure, int32_t attr,
                                        size_t k,
                                        bool interesting_only) const {
  const size_t m = static_cast<size_t>(measure);
  const std::vector<uint32_t>& view =
      attr < 0 ? global_order_[m]
               : attr_order_[m][static_cast<size_t>(attr)];
  std::vector<uint32_t> out;
  out.reserve(std::min(k, view.size()));
  for (uint32_t rule_id : view) {
    if (out.size() >= k) break;
    if (interesting_only && !set_.rules[rule_id].interesting) continue;
    out.push_back(rule_id);
  }
  return out;
}

bool RuleCatalog::RuleMentions(uint32_t rule_id, int32_t attr) const {
  const StoredRule& rule = set_.rules[rule_id];
  for (const StoredItem& item : rule.antecedent) {
    if (item.attr == attr) return true;
  }
  for (const StoredItem& item : rule.consequent) {
    if (item.attr == attr) return true;
  }
  return false;
}

std::vector<uint32_t> RuleCatalog::Browse(const BrowseFilter& filter,
                                          size_t offset, size_t limit,
                                          size_t* total) const {
  std::vector<uint32_t> out;
  size_t seen = 0;
  for (size_t r = 0; r < set_.rules.size(); ++r) {
    const StoredRule& rule = set_.rules[r];
    if (rule.confidence < filter.min_confidence) continue;
    if (rule.support < filter.min_support) continue;
    if (rule.lift < filter.min_lift) continue;
    if (filter.interesting_only && !rule.interesting) continue;
    if (filter.attr >= 0 &&
        !RuleMentions(static_cast<uint32_t>(r), filter.attr)) {
      continue;
    }
    if (seen >= offset && out.size() < limit) {
      out.push_back(static_cast<uint32_t>(r));
    }
    ++seen;
  }
  if (total != nullptr) *total = seen;
  return out;
}

}  // namespace qarm
