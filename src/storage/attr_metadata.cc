#include "storage/attr_metadata.h"

#include <string_view>
#include <unordered_set>

#include "common/string_util.h"
#include "storage/byte_reader.h"

namespace qarm {
namespace {

// Minimum encoded bytes of one attribute: name length (4) + four flag
// bytes + three element counts (4 each). Used to bound declared counts
// against the metadata section before any allocation, so a bit-flipped
// count can never trigger a multi-gigabyte resize.
constexpr size_t kMinAttrBytes = 4 + 4 + 4 + 4 + 4;
constexpr size_t kMinLabelBytes = 4;       // u32 length
constexpr size_t kIntervalBytes = 8 + 8;   // f64 lo + f64 hi
constexpr size_t kMinTaxonomyBytes = 4 + 4 + 4;  // name length + lo + hi

Status DecodeAttribute(ByteReader* reader, MappedAttribute* attr) {
  uint8_t kind = 0, source_type = 0, partitioned = 0, reserved = 0;
  QARM_RETURN_NOT_OK(reader->ReadString(&attr->name));
  QARM_RETURN_NOT_OK(reader->ReadU8(&kind));
  QARM_RETURN_NOT_OK(reader->ReadU8(&source_type));
  QARM_RETURN_NOT_OK(reader->ReadU8(&partitioned));
  QARM_RETURN_NOT_OK(reader->ReadU8(&reserved));
  if (kind > 1 || source_type > 2) {
    return Status::InvalidArgument(StrFormat(
        "kind %u / type %u out of range", kind, source_type));
  }
  attr->kind = static_cast<AttributeKind>(kind);
  attr->source_type = static_cast<ValueType>(source_type);
  attr->partitioned = partitioned != 0;

  uint32_t count = 0;
  QARM_RETURN_NOT_OK(reader->ReadU32(&count));
  QARM_RETURN_NOT_OK(reader->NeedCount(count, kMinLabelBytes));
  attr->labels.resize(count);
  std::unordered_set<std::string_view> seen;
  for (std::string& label : attr->labels) {
    QARM_RETURN_NOT_OK(reader->ReadString(&label));
    if (attr->kind == AttributeKind::kCategorical &&
        !seen.insert(label).second) {
      return Status::InvalidArgument("categorical attribute '" + attr->name +
                                     "' repeats label '" + label + "'");
    }
  }
  QARM_RETURN_NOT_OK(reader->ReadU32(&count));
  QARM_RETURN_NOT_OK(reader->NeedCount(count, kIntervalBytes));
  attr->intervals.resize(count);
  for (Interval& interval : attr->intervals) {
    QARM_RETURN_NOT_OK(reader->ReadF64(&interval.lo));
    QARM_RETURN_NOT_OK(reader->ReadF64(&interval.hi));
  }
  QARM_RETURN_NOT_OK(reader->ReadU32(&count));
  QARM_RETURN_NOT_OK(reader->NeedCount(count, kMinTaxonomyBytes));
  attr->taxonomy_ranges.resize(count);
  for (Taxonomy::NodeRange& node : attr->taxonomy_ranges) {
    QARM_RETURN_NOT_OK(reader->ReadString(&node.name));
    QARM_RETURN_NOT_OK(reader->ReadI32(&node.lo));
    QARM_RETURN_NOT_OK(reader->ReadI32(&node.hi));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeAttributeMetadata(
    const std::vector<MappedAttribute>& attributes) {
  std::string out;
  for (const MappedAttribute& attr : attributes) {
    QbtAppendString(&out, attr.name);
    out.push_back(static_cast<char>(attr.kind));
    out.push_back(static_cast<char>(attr.source_type));
    out.push_back(attr.partitioned ? 1 : 0);
    out.push_back(0);
    QbtAppendU32(&out, static_cast<uint32_t>(attr.labels.size()));
    for (const std::string& label : attr.labels) {
      QbtAppendString(&out, label);
    }
    QbtAppendU32(&out, static_cast<uint32_t>(attr.intervals.size()));
    for (const Interval& interval : attr.intervals) {
      QbtAppendF64(&out, interval.lo);
      QbtAppendF64(&out, interval.hi);
    }
    QbtAppendU32(&out, static_cast<uint32_t>(attr.taxonomy_ranges.size()));
    for (const Taxonomy::NodeRange& node : attr.taxonomy_ranges) {
      QbtAppendString(&out, node.name);
      QbtAppendI32(&out, node.lo);
      QbtAppendI32(&out, node.hi);
    }
  }
  return out;
}

Result<std::vector<MappedAttribute>> DecodeAttributeMetadata(
    const uint8_t* data, size_t size, uint32_t num_attrs, size_t* consumed) {
  if (static_cast<uint64_t>(num_attrs) * kMinAttrBytes > size) {
    return Status::InvalidArgument(
        StrFormat("%u attributes cannot fit in %zu metadata bytes", num_attrs,
                  size));
  }
  ByteReader reader(data, size, "metadata", StatusCode::kInvalidArgument);
  std::vector<MappedAttribute> attrs(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    const Status status = DecodeAttribute(&reader, &attrs[a]);
    if (!status.ok()) {
      return Status::InvalidArgument(
          StrFormat("attribute %u: %s", a, status.message().c_str()));
    }
  }
  if (consumed != nullptr) *consumed = size - reader.remaining();
  return attrs;
}

}  // namespace qarm
