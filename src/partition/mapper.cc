#include "partition/mapper.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
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

// Maps each cell of a categorical column to the id of its label in `attr`;
// NULL cells map to kMissingValue. Returns the first row whose value is no
// label, or `n` when every cell maps. A repeated label names no one
// category; hand-built metadata can hold one, so it is an error.
Result<size_t> MapByLabel(const Column& column, size_t n,
                          const MappedAttribute& attr, int32_t* out) {
  std::unordered_map<std::string_view, int32_t> ids;
  for (size_t i = 0; i < attr.labels.size(); ++i) {
    if (!ids.emplace(attr.labels[i], static_cast<int32_t>(i)).second) {
      return Status::InvalidArgument("categorical attribute '" + attr.name +
                                     "' repeats label '" + attr.labels[i] +
                                     "'");
    }
  }
  for (size_t r = 0; r < n; ++r) {
    if (column.IsNull(r)) {
      out[r] = kMissingValue;
      continue;
    }
    const auto it = ids.find(column.GetString(r));
    if (it == ids.end()) return r;
    out[r] = it->second;
  }
  return n;
}

// Maps one categorical column into `out`: its distinct values, sorted, are
// its labels 0..c-1. A taxonomy numbers its DFS leaves instead, so interior
// nodes cover contiguous id ranges, and every value must be a leaf.
// Returns the first row that maps to no id, or `n`.
Result<size_t> MapCategorical(const Column& column, size_t n,
                              const Taxonomy* taxonomy, MappedAttribute* attr,
                              int32_t* out) {
  if (taxonomy != nullptr) {
    // Every taxonomy leaf gets an id (absent leaves keep zero support);
    // this keeps interior node ranges exact.
    attr->labels = taxonomy->leaves_dfs();
    attr->taxonomy_ranges = taxonomy->interior_ranges();
  } else {
    std::unordered_set<std::string_view> distinct;
    for (size_t r = 0; r < n; ++r) {
      if (!column.IsNull(r)) distinct.insert(column.GetString(r));
    }
    attr->labels.assign(distinct.begin(), distinct.end());
    std::sort(attr->labels.begin(), attr->labels.end());
  }
  return MapByLabel(column, n, *attr, out);
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
    const bool categorical = def.kind == AttributeKind::kCategorical;
    size_t bad = n;
    if (categorical) {
      QARM_ASSIGN_OR_RETURN(
          bad, MapCategorical(column, n, taxonomy_of[c], &attr, out));
    } else {
      bad = MapQuantitative(column, n, required_intervals, options.method,
                            &attr, out);
    }
    // Each column is mapped against its own values, so only a cell outside
    // its taxonomy, or a NaN, which equals nothing, can miss.
    if (bad < n) {
      return Status::InvalidArgument(
          "value '" + column.Get(bad).ToString() + "' of attribute '" +
          def.name + "' is " +
          (categorical ? "not a leaf of its taxonomy" : "not a number"));
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
    int32_t* cells = out.mutable_column(c);
    if (attr.kind == AttributeKind::kCategorical) {
      QARM_ASSIGN_OR_RETURN(const size_t bad,
                            MapByLabel(column, n, attr, cells));
      if (bad == n) continue;
      return Status::InvalidArgument(
          "value '" + column.GetString(bad) + "' of attribute '" + attr.name +
          "' is not in the existing domain; re-convert the file to admit "
          "new categorical values");
    }
    const size_t bad = MapQuantitativeCells(column, n, attr.intervals,
                                            attr.partitioned, cells);
    if (bad == n) continue;
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
