#include "partition/mapper.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>

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

// Maps one categorical column into `out` (one value per row): distinct
// values sorted, then labeled 0..c-1. With a taxonomy, ids follow the
// taxonomy's DFS leaf order instead (so interior nodes cover contiguous id
// ranges); every value in the data must be a leaf.
Result<MappedAttribute> MapCategorical(const Table& table, size_t col,
                                       const Taxonomy* taxonomy,
                                       int32_t* out) {
  const AttributeDef& def = table.schema().attribute(col);
  const Column& column = table.column(col);
  MappedAttribute attr;
  attr.name = def.name;
  attr.kind = AttributeKind::kCategorical;
  attr.source_type = def.type;

  std::map<Value, int32_t> ids;
  if (taxonomy != nullptr) {
    // Every taxonomy leaf gets an id (absent leaves keep zero support);
    // this keeps interior node ranges exact.
    int32_t next = 0;
    for (const std::string& leaf : taxonomy->leaves_dfs()) {
      ids.emplace(Value(leaf), next++);
      attr.labels.push_back(leaf);
    }
    attr.taxonomy_ranges = taxonomy->interior_ranges();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (column.IsNull(r)) {
        out[r] = kMissingValue;
        continue;
      }
      auto it = ids.find(column.Get(r));
      if (it == ids.end()) {
        return Status::InvalidArgument(
            "value '" + column.Get(r).ToString() + "' of attribute '" +
            def.name + "' is not a leaf of its taxonomy");
      }
      out[r] = it->second;
    }
    return attr;
  }

  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (column.IsNull(r)) continue;
    ids.emplace(column.Get(r), 0);  // sorted => deterministic mapping
  }
  int32_t next = 0;
  for (auto& [value, id] : ids) {
    id = next++;
    attr.labels.push_back(value.ToString());
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    out[r] = column.IsNull(r) ? kMissingValue : ids.at(column.Get(r));
  }
  return attr;
}

// Maps one quantitative column into `out`, partitioning per the options.
MappedAttribute MapQuantitative(const Table& table, size_t col,
                                size_t required_intervals,
                                PartitionMethod method, int32_t* out) {
  const AttributeDef& def = table.schema().attribute(col);
  const Column& column = table.column(col);
  const size_t n = table.num_rows();

  std::vector<double> values;  // non-null cells only
  values.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    if (!column.IsNull(r)) values.push_back(column.GetNumeric(r));
  }

  std::vector<double> distinct = values;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  MappedAttribute attr;
  attr.name = def.name;
  attr.kind = AttributeKind::kQuantitative;
  attr.source_type = def.type;

  if (distinct.size() <= required_intervals || distinct.size() <= 1) {
    // Few values: no partitioning; each distinct value is its own integer
    // (order preserved), per Section 2.1.
    attr.partitioned = false;
    attr.intervals.reserve(distinct.size());
    for (double v : distinct) attr.intervals.push_back(Interval{v, v});
    for (size_t r = 0; r < n; ++r) {
      if (column.IsNull(r)) {
        out[r] = kMissingValue;
        continue;
      }
      auto it = std::lower_bound(distinct.begin(), distinct.end(),
                                 column.GetNumeric(r));
      out[r] = static_cast<int32_t>(it - distinct.begin());
    }
    return attr;
  }

  attr.partitioned = true;
  switch (method) {
    case PartitionMethod::kEquiDepth:
      attr.intervals = EquiDepthPartition(values, required_intervals);
      break;
    case PartitionMethod::kEquiWidth:
      attr.intervals =
          EquiWidthPartition(distinct.front(), distinct.back(),
                             required_intervals);
      break;
    case PartitionMethod::kKMeans:
      attr.intervals = KMeansPartition(values, required_intervals);
      break;
  }
  for (size_t r = 0; r < n; ++r) {
    if (column.IsNull(r)) {
      out[r] = kMissingValue;
      continue;
    }
    int64_t idx = AssignToInterval(attr.intervals, column.GetNumeric(r));
    QARM_CHECK_GE(idx, 0);
    out[r] = static_cast<int32_t>(idx);
  }
  return attr;
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
  for (const auto& [name, taxonomy] : options.taxonomies) {
    (void)taxonomy;
    QARM_ASSIGN_OR_RETURN(size_t index, schema.IndexOf(name));
    if (schema.attribute(index).kind != AttributeKind::kCategorical) {
      return Status::InvalidArgument("taxonomy on non-categorical attribute '" +
                                     name + "'");
    }
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
  MappedTable mapped(std::vector<MappedAttribute>(schema.num_attributes()),
                     table.num_rows());
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    int32_t* column = mapped.mutable_column(c);
    if (schema.attribute(c).kind == AttributeKind::kCategorical) {
      const Taxonomy* taxonomy = nullptr;
      for (const auto& [name, tax] : options.taxonomies) {
        if (name == schema.attribute(c).name) {
          taxonomy = &tax;
          break;
        }
      }
      QARM_ASSIGN_OR_RETURN(MappedAttribute attr,
                            MapCategorical(table, c, taxonomy, column));
      mapped.set_attribute(c, std::move(attr));
    } else {
      mapped.set_attribute(c, MapQuantitative(table, c, required_intervals,
                                              options.method, column));
    }
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

  MappedTable out(attributes, table.num_rows());
  for (size_t c = 0; c < attributes.size(); ++c) {
    const MappedAttribute& attr = attributes[c];
    const Column& column = table.column(c);
    if (attr.kind == AttributeKind::kCategorical) {
      std::map<std::string, int32_t> ids;
      for (size_t i = 0; i < attr.labels.size(); ++i) {
        ids.emplace(attr.labels[i], static_cast<int32_t>(i));
      }
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (column.IsNull(r)) {
          out.set_value(r, c, kMissingValue);
          continue;
        }
        auto it = ids.find(column.Get(r).ToString());
        if (it == ids.end()) {
          return Status::InvalidArgument(
              "value '" + column.Get(r).ToString() + "' of attribute '" +
              attr.name + "' is not in the existing domain; re-convert the "
              "file to admit new categorical values");
        }
        out.set_value(r, c, it->second);
      }
      continue;
    }
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (column.IsNull(r)) {
        out.set_value(r, c, kMissingValue);
        continue;
      }
      const double v = column.GetNumeric(r);
      if (attr.partitioned) {
        const int64_t idx = AssignToInterval(attr.intervals, v);
        if (idx < 0) {
          return Status::InvalidArgument("attribute '" + attr.name +
                                         "' has no intervals to assign to");
        }
        out.set_value(r, c, static_cast<int32_t>(idx));
        continue;
      }
      // Unpartitioned: every existing integer is one exact raw value.
      const auto it = std::lower_bound(
          attr.intervals.begin(), attr.intervals.end(), v,
          [](const Interval& interval, double value) {
            return interval.lo < value;
          });
      if (it == attr.intervals.end() || it->lo != v) {
        return Status::InvalidArgument(
            "value " + FormatDouble(v) + " of attribute '" + attr.name +
            "' is not in the existing domain; re-convert the file to admit "
            "new quantitative values");
      }
      out.set_value(
          r, c, static_cast<int32_t>(it - attr.intervals.begin()));
    }
  }
  return out;
}

}  // namespace qarm
