// QRS ("Quantitative Rule Set") — the on-disk format for a mined rule set,
// written by `qarm mine --output-rules` and loaded by the serving engine
// (`qarm serve`) and the `qarm rules dump` inspector. It is the durable
// boundary between mining time and serving time: everything a server needs
// to answer queries — the rules with their quality measures plus the
// decode metadata that maps raw attribute values to mapped ids and back —
// travels in one self-describing, CRC-protected file.
//
// Like QCP, the rule set is expressed in storage-neutral types (flat item
// triples, plain doubles) rather than core types, keeping this layer free
// of core dependencies; src/core/rules_export.{h,cc} converts from the
// miner's structures.
//
// Layout (version 1, all integers little-endian via the QBT helpers):
//
//   Header (32 bytes)
//     [0]  u8[4]  magic "QRS1"
//     [4]  u32    endian marker 0x0A0B0C0D (shared with QBT/QCP)
//     [8]  u32    format version (kQrsVersion)
//     [12] u32    num_attributes
//     [16] u64    payload_size
//     [24] u64    num_records (records the rules were mined from)
//
//   Payload (payload_size bytes)
//     f64 minsup, f64 minconf, f64 interest_level   (mining parameters)
//     u64 metadata_size
//       attribute metadata (shared QBT/QRS encoding, attr_metadata.h)
//     u64 num_rules
//       per rule:
//         u8  num_antecedent   (>= 1)
//         u8  num_consequent   (>= 1)
//         u8  interesting      (0/1)
//         u8  reserved         (0)
//         items: (i32 attr, i32 lo, i32 hi) per item, antecedent first,
//                each side sorted by attribute, sides attribute-disjoint
//         u64 count            (records supporting antecedent ∪ consequent)
//         f64 support, f64 confidence, f64 lift
//
//   Tail (8 bytes)
//     u32    CRC-32 of the payload bytes
//     u8[4]  end magic "QRSE"
//
// The header and tail are the CRC envelope shared with QCP, and the file is
// written with WriteFileAtomic (storage/byte_reader.h). The reader validates
// the envelope (magic, endianness, version, size, CRC), decodes the payload
// with ByteReader, which checks every declared count against the remaining
// bytes (in division form, before any allocation), and checks the semantic
// invariants of every rule (sides non-empty and attribute-sorted, endpoints
// inside the attribute's mapped domain, measures finite and in range); any
// mismatch is a clean Status, never a crash.
#ifndef QARM_STORAGE_RULES_FORMAT_H_
#define QARM_STORAGE_RULES_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "partition/mapped_table.h"
#include "storage/byte_reader.h"

namespace qarm {

inline constexpr char kQrsMagic[4] = {'Q', 'R', 'S', '1'};
inline constexpr char kQrsEndMagic[4] = {'Q', 'R', 'S', 'E'};
inline constexpr uint32_t kQrsVersion = 1;
inline constexpr size_t kQrsHeaderSize = kEnvelopeHeaderSize + 8;
inline constexpr size_t kQrsTailSize = kEnvelopeTailSize;
// The envelope's header word is num_attributes; its extra header is
// num_records.
inline constexpr FileFormat kQrsFormat = {
    "rule set", kQrsMagic, kQrsEndMagic, kQrsVersion, 8};
// Encoded bytes of one item: i32 attr + i32 lo + i32 hi.
inline constexpr size_t kQrsItemBytes = 3 * 4;
// Minimum encoded bytes of one rule: the four flag bytes, one item per
// side, the count, and the three measures. Bounds num_rules in division
// form before any allocation.
inline constexpr size_t kQrsMinRuleBytes = 4 + 2 * kQrsItemBytes + 8 + 3 * 8;

// One <attr, lo, hi> rule item over the mapped integer domain. Mirrors
// core's RangeItem without depending on it (the QCP discipline).
struct StoredItem {
  int32_t attr = 0;
  int32_t lo = 0;
  int32_t hi = 0;

  bool operator==(const StoredItem& other) const {
    return attr == other.attr && lo == other.lo && hi == other.hi;
  }
};

// One mined rule: antecedent => consequent with its quality measures.
// `lift` is confidence / support(consequent), or 0 when the consequent's
// support was unavailable at write time.
struct StoredRule {
  std::vector<StoredItem> antecedent;
  std::vector<StoredItem> consequent;
  uint64_t count = 0;
  double support = 0.0;
  double confidence = 0.0;
  double lift = 0.0;
  bool interesting = true;

  size_t num_items() const { return antecedent.size() + consequent.size(); }
};

// A complete rule set: the rules plus the decode metadata and the mining
// parameters they were produced under.
struct StoredRuleSet {
  std::vector<MappedAttribute> attributes;
  uint64_t num_records = 0;
  double minsup = 0.0;
  double minconf = 0.0;
  double interest_level = 0.0;
  std::vector<StoredRule> rules;
};

// Serializes `set` and writes it atomically (temp file + rename) to
// `path`. The file size lands in `*bytes_written` when non-null. IOError
// on any filesystem failure; an existing file at `path` is left untouched
// on failure.
Status WriteRuleSet(const StoredRuleSet& set, const std::string& path,
                    uint64_t* bytes_written = nullptr);

// Parses a rule set from an in-memory buffer (the fuzz entry point; the
// file reader delegates here). Every declared size is validated against
// the remaining bytes before allocation.
Result<StoredRuleSet> ParseRuleSet(const uint8_t* data, size_t size);

// Memory-maps and validates the rule set at `path`. The mapping only
// lives for the duration of the call; the returned set owns its storage.
Result<StoredRuleSet> ReadRuleSet(const std::string& path);

}  // namespace qarm

#endif  // QARM_STORAGE_RULES_FORMAT_H_
