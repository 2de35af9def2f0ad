// QBT ("Quantitative Binary Table") — the on-disk columnar format for
// mapped tables, built for streaming block scans of tables larger than RAM.
//
// Layout (version 1, all integers little-endian, no alignment padding
// between sections):
//
//   Header (40 bytes)
//     [0]  u8[4]  magic "QBT1"
//     [4]  u32    endian marker 0x0A0B0C0D (a big-endian writer would store
//                 the reversed bytes; readers reject the mismatch cleanly)
//     [8]  u32    format version (kQbtVersion)
//     [12] u32    rows_per_block (every block holds this many rows except
//                 possibly the last)
//     [16] u64    num_rows
//     [24] u32    num_attributes
//     [28] u32    reserved (0)
//     [32] u64    metadata_size (bytes of the attribute-metadata section)
//
//   Attribute metadata (metadata_size bytes): per attribute, in order —
//     name        u32 length + bytes
//     kind        u8  (AttributeKind)
//     source_type u8  (ValueType)
//     partitioned u8  (0/1)
//     reserved    u8  (0)
//     labels            u32 count + per label (u32 length + bytes)
//     intervals         u32 count + per interval (f64 lo, f64 hi)
//     taxonomy_ranges   u32 count + per node (u32 length + name bytes,
//                                             i32 lo, i32 hi)
//
//   Blocks (ceil(num_rows / rows_per_block) of them, back to back):
//     block b = column 0 slice, column 1 slice, ..., column A-1 slice,
//     where a slice is block_rows(b) i32 mapped values (kMissingValue for
//     NULL cells). Column-major within the block, so a scan touches each
//     column as one contiguous run.
//
//   Footer (block index): per block —
//     u64 file offset of the block
//     u32 block row count
//     u32 CRC-32 of the block's raw bytes
//
//   Tail (16 bytes)
//     u64    file offset of the footer
//     u32    CRC-32 of the footer bytes
//     u8[4]  end magic "QBTE"
//
// The footer-at-the-end layout lets the writer stream blocks without
// knowing the block count up front, and lets the reader locate the index
// from the fixed-size tail.
#ifndef QARM_STORAGE_QBT_FORMAT_H_
#define QARM_STORAGE_QBT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace qarm {

inline constexpr char kQbtMagic[4] = {'Q', 'B', 'T', '1'};
inline constexpr char kQbtEndMagic[4] = {'Q', 'B', 'T', 'E'};
inline constexpr uint32_t kQbtEndianMarker = 0x0A0B0C0Du;
inline constexpr uint32_t kQbtVersion = 1;
inline constexpr uint32_t kQbtDefaultRowsPerBlock = 65536;
inline constexpr size_t kQbtHeaderSize = 40;
inline constexpr size_t kQbtBlockIndexEntrySize = 8 + 4 + 4;
inline constexpr size_t kQbtTailSize = 8 + 4 + 4;

// --- Little-endian append/read helpers -------------------------------------
// QBT is defined little-endian; these helpers are byte-order explicit so the
// format does not silently change meaning on a big-endian host (the endian
// marker additionally rejects cross-endian files at open).

inline void QbtAppendU32(std::string* out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

inline void QbtAppendU64(std::string* out, uint64_t v) {
  QbtAppendU32(out, static_cast<uint32_t>(v));
  QbtAppendU32(out, static_cast<uint32_t>(v >> 32));
}

inline void QbtAppendI32(std::string* out, int32_t v) {
  QbtAppendU32(out, static_cast<uint32_t>(v));
}

inline void QbtAppendF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  QbtAppendU64(out, bits);
}

inline void QbtAppendString(std::string* out, const std::string& s) {
  QbtAppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// The footer's per-block record: file offset, row count, CRC-32 of the
// block's bytes.
inline void QbtAppendIndexEntry(std::string* out, uint64_t offset,
                                uint32_t num_rows, uint32_t crc) {
  QbtAppendU64(out, offset);
  QbtAppendU32(out, num_rows);
  QbtAppendU32(out, crc);
}

// The 16-byte tail: footer offset, CRC-32 of the footer, end magic.
inline void QbtAppendTail(std::string* out, uint64_t footer_offset,
                          uint32_t footer_crc) {
  QbtAppendU64(out, footer_offset);
  QbtAppendU32(out, footer_crc);
  out->append(kQbtEndMagic, sizeof(kQbtEndMagic));
}

inline uint32_t QbtReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline uint64_t QbtReadU64(const uint8_t* p) {
  return static_cast<uint64_t>(QbtReadU32(p)) |
         static_cast<uint64_t>(QbtReadU32(p + 4)) << 32;
}

inline int32_t QbtReadI32(const uint8_t* p) {
  return static_cast<int32_t>(QbtReadU32(p));
}

inline double QbtReadF64(const uint8_t* p) {
  uint64_t bits = QbtReadU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace qarm

#endif  // QARM_STORAGE_QBT_FORMAT_H_
