#include "partition/mapper.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "partition/partial_completeness.h"
#include "partition/partitioner.h"

namespace qarm {

std::string MappedAttribute::DecodeRange(int32_t lo, int32_t hi) const {
  if (kind == AttributeKind::kCategorical) {
    QARM_CHECK_GE(lo, 0);
    QARM_CHECK_LE(lo, hi);
    QARM_CHECK_LT(static_cast<size_t>(hi), labels.size());
    if (lo == hi) return labels[static_cast<size_t>(lo)];
    // A range over a taxonomy attribute: prefer the interior node's name.
    for (const Taxonomy::NodeRange& node : taxonomy_ranges) {
      if (node.lo == lo && node.hi == hi) return node.name;
    }
    // Not a named node (e.g. a box difference): list the leaves.
    std::string out = labels[static_cast<size_t>(lo)];
    for (int32_t v = lo + 1; v <= hi; ++v) {
      out += "|";
      out += labels[static_cast<size_t>(v)];
    }
    return out;
  }
  return RawInterval(lo, hi).ToString();
}

void AppendItemJson(const MappedAttribute& attr, int32_t lo, int32_t hi,
                    std::string* out) {
  const std::string display = attr.DecodeRange(lo, hi);
  *out += "{\"attribute\":";
  *out += JsonEscape(attr.name);
  if (attr.kind == AttributeKind::kQuantitative) {
    const Interval raw = attr.RawInterval(lo, hi);
    *out += ",\"kind\":\"quantitative\",\"lo\":";
    *out += FormatDouble(raw.lo);
    *out += ",\"hi\":";
    *out += FormatDouble(raw.hi);
  } else {
    *out += ",\"kind\":\"categorical\",\"value\":";
    *out += JsonEscape(display);
  }
  *out += ",\"display\":";
  *out += JsonEscape(display);
  *out += '}';
}

MappedTable::MappedTable(std::vector<MappedAttribute> attributes,
                         size_t num_rows)
    : attributes_(std::move(attributes)),
      num_rows_(num_rows),
      data_(num_rows * attributes_.size(), 0) {}

size_t MappedTable::num_quantitative() const {
  return static_cast<size_t>(std::count_if(
      attributes_.begin(), attributes_.end(), [](const MappedAttribute& a) {
        return a.kind == AttributeKind::kQuantitative;
      }));
}

MappedTable MappedTable::Head(size_t n) const {
  const size_t rows = std::min(n, num_rows_);
  MappedTable out(attributes_, rows);
  for (size_t a = 0; a < attributes_.size(); ++a) {
    std::copy(column(a), column(a) + rows, out.mutable_column(a));
  }
  return out;
}

namespace {

// Maps each cell of a categorical column to its id in `ids`, looking the
// cell up by `key(row)`; NULL cells map to kMissingValue. Returns the first
// row whose key `ids` lacks, or `n` when every cell maps.
template <class Ids, class Key>
size_t MapCategoricalCells(const Column& column, size_t n, const Ids& ids,
                           Key key, int32_t* out) {
  for (size_t r = 0; r < n; ++r) {
    if (column.IsNull(r)) {
      out[r] = kMissingValue;
      continue;
    }
    const auto it = ids.find(key(r));
    if (it == ids.end()) return r;
    out[r] = it->second;
  }
  return n;
}

// Maps each cell of a quantitative column to the first interval reaching
// it (AssignToInterval); unless `partitioned`, that interval must be the
// cell's own value. NULL cells map to kMissingValue. Returns the first row
// with no interval, or `n` when every cell maps.
size_t MapQuantitativeCells(const Column& column, size_t n,
                            const std::vector<Interval>& intervals,
                            bool partitioned, int32_t* out) {
  for (size_t r = 0; r < n; ++r) {
    if (column.IsNull(r)) {
      out[r] = kMissingValue;
      continue;
    }
    const double v = column.GetNumeric(r);
    const int64_t idx = AssignToInterval(intervals, v);
    if (idx < 0 || (!partitioned && intervals[idx].lo != v)) return r;
    out[r] = static_cast<int32_t>(idx);
  }
  return n;
}

// Maps a categorical column as MapCategoricalCells does, against the
// label -> id table of `labels`, by each cell's Value::ToString text. A
// label several ids share (distinct doubles can print alike) names no one
// id, so a cell with that text does not map.
size_t MapByLabel(const Column& column, size_t n,
                  const std::vector<std::string>& labels, int32_t* out) {
  std::unordered_map<std::string_view, int32_t> ids;
  std::vector<std::string_view> shared;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (!ids.emplace(labels[i], static_cast<int32_t>(i)).second) {
      shared.push_back(labels[i]);
    }
  }
  for (std::string_view label : shared) ids.erase(label);
  if (column.type() == ValueType::kString) {
    return MapCategoricalCells(
        column, n, ids,
        [&](size_t r) { return std::string_view(column.GetString(r)); }, out);
  }
  return MapCategoricalCells(
      column, n, ids, [&](size_t r) { return column.Get(r).ToString(); },
      out);
}

// Numbers the distinct keys `key(row)` of the non-NULL cells 0..c-1 in
// Value order, labels each with the Value::ToString text of its first cell,
// then maps the cells as MapCategoricalCells does.
template <class Key, class GetKey>
size_t RankAndMap(const Column& column, size_t n, GetKey key,
                  MappedAttribute* attr, int32_t* out) {
  std::unordered_map<Key, int32_t> ids;
  std::vector<std::pair<Key, size_t>> first_rows;
  for (size_t r = 0; r < n; ++r) {
    if (!column.IsNull(r) && ids.emplace(key(r), 0).second) {
      first_rows.emplace_back(key(r), r);
    }
  }
  std::sort(first_rows.begin(), first_rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < first_rows.size(); ++i) {
    ids[first_rows[i].first] = static_cast<int32_t>(i);
    attr->labels.push_back(column.Get(first_rows[i].second).ToString());
  }
  return MapCategoricalCells(column, n, ids, key, out);
}

// Maps one categorical column into `out`: distinct values sorted, then
// labeled 0..c-1. A taxonomy (string columns only) numbers its DFS leaves
// instead, so interior nodes cover contiguous id ranges, and every value
// must be a leaf. Returns the first row that maps to no id, or `n`.
size_t MapCategorical(const Column& column, size_t n, const Taxonomy* taxonomy,
                      MappedAttribute* attr, int32_t* out) {
  if (taxonomy != nullptr) {
    // Every taxonomy leaf gets an id (absent leaves keep zero support);
    // this keeps interior node ranges exact.
    attr->labels = taxonomy->leaves_dfs();
    attr->taxonomy_ranges = taxonomy->interior_ranges();
    return MapByLabel(column, n, attr->labels, out);
  }
  switch (column.type()) {
    case ValueType::kInt64:
      return RankAndMap<int64_t>(
          column, n, [&](size_t r) { return column.GetInt64(r); }, attr, out);
    case ValueType::kDouble:
      return RankAndMap<double>(
          column, n, [&](size_t r) { return column.GetDouble(r); }, attr, out);
    case ValueType::kString:
      return RankAndMap<std::string_view>(
          column, n,
          [&](size_t r) { return std::string_view(column.GetString(r)); },
          attr, out);
  }
  return n;
}

// Maps one quantitative column into `out`, partitioning per the options.
// The column's values are sorted once, and the intervals come from that
// copy. Returns the first row that maps to no interval, or `n`.
size_t MapQuantitative(const Column& column, size_t n,
                       size_t required_intervals, PartitionMethod method,
                       MappedAttribute* attr, int32_t* out) {
  std::vector<double> sorted;  // non-null cells only
  sorted.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    if (!column.IsNull(r)) sorted.push_back(column.GetNumeric(r));
  }
  std::sort(sorted.begin(), sorted.end());

  // Few values: no partitioning; each distinct value is its own integer
  // (order preserved), per Section 2.1. One distinct value more than
  // `required_intervals` (at least 1) means the column is partitioned.
  for (double v : sorted) {
    if (!attr->intervals.empty() && attr->intervals.back().lo == v) continue;
    attr->intervals.push_back(Interval{v, v});
    if (attr->intervals.size() > required_intervals) break;
  }
  attr->partitioned = attr->intervals.size() > required_intervals;
  if (attr->partitioned) {
    if (method == PartitionMethod::kEquiDepth) {
      attr->intervals = EquiDepthPartition(sorted, required_intervals);
    } else if (method == PartitionMethod::kEquiWidth) {
      attr->intervals = EquiWidthPartition(sorted.front(), sorted.back(),
                                           required_intervals);
    } else {
      attr->intervals = KMeansPartition(sorted, required_intervals);
    }
  }
  return MapQuantitativeCells(column, n, attr->intervals, attr->partitioned,
                              out);
}

}  // namespace

Result<MappedTable> MapTable(const Table& table, const MapOptions& options) {
  // Finiteness first: NaN compares false against every bound below, so it
  // would otherwise slip through and reach the Equation 2 arithmetic.
  if (!std::isfinite(options.minsup) || options.minsup <= 0.0 ||
      options.minsup > 1.0) {
    return Status::InvalidArgument(
        StrFormat("minsup must be in (0,1], got %g", options.minsup));
  }
  if (!std::isfinite(options.partial_completeness) ||
      (options.num_intervals_override == 0 &&
       options.partial_completeness <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "partial completeness level must be > 1, got %g",
        options.partial_completeness));
  }

  const Schema& schema = table.schema();
  std::vector<const Taxonomy*> taxonomy_of(schema.num_attributes(), nullptr);
  for (const auto& [name, taxonomy] : options.taxonomies) {
    QARM_ASSIGN_OR_RETURN(size_t index, schema.IndexOf(name));
    const AttributeDef& def = schema.attribute(index);
    if (def.kind != AttributeKind::kCategorical) {
      return Status::InvalidArgument("taxonomy on non-categorical attribute '" +
                                     name + "'");
    }
    if (def.type != ValueType::kString) {
      return Status::InvalidArgument(
          "taxonomy on attribute '" + name + "' needs a string column, not " +
          ValueTypeName(def.type));
    }
    if (taxonomy_of[index] == nullptr) taxonomy_of[index] = &taxonomy;
  }
  size_t n_quant = options.max_quantitative_per_rule > 0
                       ? options.max_quantitative_per_rule
                       : schema.num_quantitative();
  size_t required_intervals =
      options.num_intervals_override > 0
          ? options.num_intervals_override
          : IntervalsForPartialCompleteness(options.partial_completeness,
                                            n_quant, options.minsup);

  // Map each column in place, then attach the metadata derived from it.
  const size_t n = table.num_rows();
  MappedTable mapped(std::vector<MappedAttribute>(schema.num_attributes()), n);
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    const AttributeDef& def = schema.attribute(c);
    const Column& column = table.column(c);
    MappedAttribute attr;
    attr.name = def.name;
    attr.kind = def.kind;
    attr.source_type = def.type;
    int32_t* out = mapped.mutable_column(c);
    const size_t bad =
        def.kind == AttributeKind::kCategorical
            ? MapCategorical(column, n, taxonomy_of[c], &attr, out)
            : MapQuantitative(column, n, required_intervals, options.method,
                              &attr, out);
    // Each column is mapped against its own values, so outside a taxonomy
    // only a NaN, which equals nothing, can miss.
    if (bad < n) {
      return Status::InvalidArgument(
          "value '" + column.Get(bad).ToString() + "' of attribute '" +
          def.name + "' is " +
          (taxonomy_of[c] != nullptr ? "not a leaf of its taxonomy"
                                     : "not a number"));
    }
    mapped.set_attribute(c, std::move(attr));
  }
  return mapped;
}

Result<MappedTable> MapTableWithAttributes(
    const Table& table, const std::vector<MappedAttribute>& attributes) {
  const Schema& schema = table.schema();
  if (schema.num_attributes() != attributes.size()) {
    return Status::InvalidArgument(StrFormat(
        "table has %zu attributes, existing metadata has %zu",
        schema.num_attributes(), attributes.size()));
  }
  for (size_t c = 0; c < attributes.size(); ++c) {
    const AttributeDef& def = schema.attribute(c);
    if (def.name != attributes[c].name || def.kind != attributes[c].kind) {
      return Status::InvalidArgument(
          "attribute " + std::to_string(c) + " ('" + def.name +
          "') does not match the existing metadata ('" + attributes[c].name +
          "')");
    }
  }

  const size_t n = table.num_rows();
  MappedTable out(attributes, n);
  for (size_t c = 0; c < attributes.size(); ++c) {
    const MappedAttribute& attr = attributes[c];
    const Column& column = table.column(c);
    const bool categorical = attr.kind == AttributeKind::kCategorical;
    const size_t bad =
        categorical ? MapByLabel(column, n, attr.labels, out.mutable_column(c))
                    : MapQuantitativeCells(column, n, attr.intervals,
                                           attr.partitioned,
                                           out.mutable_column(c));
    if (bad == n) continue;
    if (categorical) {
      const std::string value = column.Get(bad).ToString();
      if (std::count(attr.labels.begin(), attr.labels.end(), value) > 1) {
        return Status::InvalidArgument(
            "value '" + value + "' of attribute '" + attr.name +
            "' matches label '" + value + "', which several categories "
            "share; re-convert the file to tell them apart");
      }
      return Status::InvalidArgument(
          "value '" + value + "' of attribute '" + attr.name +
          "' is not in the existing domain; re-convert the file to admit "
          "new categorical values");
    }
    if (attr.partitioned) {
      return Status::InvalidArgument("attribute '" + attr.name +
                                     "' has no intervals to assign to");
    }
    return Status::InvalidArgument(
        "value " + FormatDouble(column.GetNumeric(bad)) + " of attribute '" +
        attr.name + "' is not in the existing domain; re-convert the file "
        "to admit new quantitative values");
  }
  return out;
}

}  // namespace qarm
