// Shared codec for the per-attribute decode metadata section used by both
// on-disk formats that carry it: QBT (the columnar table format) and QRS
// (the mined rule-set format). One definition keeps the two formats
// byte-compatible — a QRS file's metadata section is exactly a QBT one —
// and gives their readers the same bounds discipline.
//
// Per attribute, in order (see qbt_format.h for the integer encodings):
//   name        u32 length + bytes
//   kind        u8  (AttributeKind)
//   source_type u8  (ValueType)
//   partitioned u8  (0/1)
//   reserved    u8  (0)
//   labels            u32 count + per label (u32 length + bytes)
//   intervals         u32 count + per interval (f64 lo, f64 hi)
//   taxonomy_ranges   u32 count + per node (u32 length + name bytes,
//                                           i32 lo, i32 hi)
#ifndef QARM_STORAGE_ATTR_METADATA_H_
#define QARM_STORAGE_ATTR_METADATA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "partition/mapped_table.h"

namespace qarm {

// Serializes the metadata of `attributes` (no count prefix; the enclosing
// format carries the attribute count in its header).
std::string EncodeAttributeMetadata(
    const std::vector<MappedAttribute>& attributes);

// Decodes `num_attrs` attributes from a metadata section of `size` bytes.
// Every declared count is validated against the remaining bytes before any
// allocation, so a hostile count can never trigger an oversized resize.
// A categorical attribute that repeats a label is malformed: each label
// names one category, so readers may map label -> id one to one.
// `consumed`, when non-null, receives the bytes actually decoded (callers
// decide how much trailing padding their format permits). Errors are
// InvalidArgument with a section-relative description; callers wrap them
// with file context.
Result<std::vector<MappedAttribute>> DecodeAttributeMetadata(
    const uint8_t* data, size_t size, uint32_t num_attrs,
    size_t* consumed = nullptr);

}  // namespace qarm

#endif  // QARM_STORAGE_ATTR_METADATA_H_
