// The integer-mapped view of a relational table produced by steps 1-2 of the
// problem decomposition (Section 2.1). After mapping, the mining algorithm
// sees only consecutive integers per attribute; whether an integer denotes a
// categorical value, a raw quantitative value, or a base interval is
// transparent to it, exactly as in the paper.
#ifndef QARM_PARTITION_MAPPED_TABLE_H_
#define QARM_PARTITION_MAPPED_TABLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "partition/interval.h"
#include "partition/taxonomy.h"
#include "table/schema.h"

namespace qarm {

// Mapped value of a missing cell: a record never supports any item of an
// attribute it lacks (Section 2's "at most once" record model).
inline constexpr int32_t kMissingValue = -1;

// Decode metadata for one mapped attribute.
struct MappedAttribute {
  std::string name;
  AttributeKind kind = AttributeKind::kCategorical;
  // The source column's type: kString for every categorical attribute
  // (files written before that rule may say int64 or double; their labels
  // are plain text and decode the same).
  ValueType source_type = ValueType::kString;
  // True when the attribute was partitioned into multi-value base intervals.
  bool partitioned = false;

  // Categorical: mapped id -> original label.
  std::vector<std::string> labels;
  // Quantitative: mapped id -> raw interval (single-value when the attribute
  // was not partitioned). Ordered by value, so a range [l..u] over mapped
  // ids decodes to the raw interval [intervals[l].lo, intervals[u].hi].
  std::vector<Interval> intervals;

  // Categorical attributes with a taxonomy: ids are assigned in taxonomy
  // DFS order, so every interior node is the contiguous id range recorded
  // here. Empty for plain categorical attributes.
  std::vector<Taxonomy::NodeRange> taxonomy_ranges;

  size_t domain_size() const {
    return kind == AttributeKind::kCategorical ? labels.size()
                                               : intervals.size();
  }

  // True when items over this attribute may span ranges of mapped ids:
  // quantitative attributes always, categorical ones only under a taxonomy
  // (Section 1.1). Ranged attributes are counted as dimensions of the
  // super-candidate rectangles.
  bool ranged() const {
    return kind == AttributeKind::kQuantitative || !taxonomy_ranges.empty();
  }

  // Decodes a mapped id (categorical) or an inclusive mapped range
  // (quantitative) to display text, e.g. "Yes" or "20..29".
  std::string DecodeRange(int32_t lo, int32_t hi) const;

  // The raw interval covered by mapped range [lo, hi] (quantitative only).
  Interval RawInterval(int32_t lo, int32_t hi) const {
    QARM_CHECK(kind == AttributeKind::kQuantitative);
    QARM_CHECK_LE(lo, hi);
    QARM_CHECK_GE(lo, 0);
    QARM_CHECK_LT(static_cast<size_t>(hi), intervals.size());
    return Interval{intervals[static_cast<size_t>(lo)].lo,
                    intervals[static_cast<size_t>(hi)].hi};
  }
};

// Column-major matrix of mapped integer values plus decode metadata:
// attribute a's values are one contiguous run of num_rows() integers, the
// layout of the raw Table's columns and of every QBT block. Scans read the
// runs in place (MappedTableSource hands out slices of them as blocks).
class MappedTable {
 public:
  MappedTable(std::vector<MappedAttribute> attributes, size_t num_rows);

  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return attributes_.size(); }
  size_t num_quantitative() const;

  const MappedAttribute& attribute(size_t a) const { return attributes_[a]; }
  const std::vector<MappedAttribute>& attributes() const {
    return attributes_;
  }
  // Replaces attribute a's decode metadata. The mapper fills each column
  // first and attaches the metadata it derived along the way.
  void set_attribute(size_t a, MappedAttribute attribute) {
    attributes_[a] = std::move(attribute);
  }

  int32_t value(size_t row, size_t attr) const {
    return data_[attr * num_rows_ + row];
  }
  void set_value(size_t row, size_t attr, int32_t v) {
    data_[attr * num_rows_ + row] = v;
  }

  // Attribute a's num_rows() values, row 0 first.
  const int32_t* column(size_t attr) const {
    return data_.data() + attr * num_rows_;
  }
  int32_t* mutable_column(size_t attr) {
    return data_.data() + attr * num_rows_;
  }

  // A mapped view of only the first n rows (shares no storage; copies).
  MappedTable Head(size_t n) const;

 private:
  std::vector<MappedAttribute> attributes_;
  size_t num_rows_;
  std::vector<int32_t> data_;
};

}  // namespace qarm

#endif  // QARM_PARTITION_MAPPED_TABLE_H_
