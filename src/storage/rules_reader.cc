#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "storage/attr_metadata.h"
#include "storage/byte_reader.h"
#include "storage/mmap_file.h"
#include "storage/rules_format.h"

namespace qarm {
namespace {

// Reads one side of a rule and checks it is a well-formed itemset: sorted
// strictly by attribute (so at most one item per attribute) with every
// endpoint inside the attribute's mapped domain.
Status ReadSide(ByteReader* reader, size_t rule_index, const char* side,
                size_t num_items, const std::vector<MappedAttribute>& attrs,
                std::vector<StoredItem>* out) {
  out->resize(num_items);
  int32_t prev_attr = -1;
  for (StoredItem& item : *out) {
    QARM_RETURN_NOT_OK(reader->ReadI32(&item.attr));
    QARM_RETURN_NOT_OK(reader->ReadI32(&item.lo));
    QARM_RETURN_NOT_OK(reader->ReadI32(&item.hi));
    if (item.attr < 0 ||
        static_cast<size_t>(item.attr) >= attrs.size()) {
      return Status::InvalidArgument(
          StrFormat("rule %zu %s names attribute %d of %zu", rule_index,
                    side, item.attr, attrs.size()));
    }
    if (item.attr <= prev_attr) {
      return Status::InvalidArgument(StrFormat(
          "rule %zu %s is not attribute-sorted", rule_index, side));
    }
    prev_attr = item.attr;
    const size_t domain =
        attrs[static_cast<size_t>(item.attr)].domain_size();
    if (item.lo < 0 || item.lo > item.hi ||
        static_cast<size_t>(item.hi) >= domain) {
      return Status::InvalidArgument(StrFormat(
          "rule %zu %s has range [%d, %d] outside the %zu-value domain "
          "of attribute %d",
          rule_index, side, item.lo, item.hi, domain, item.attr));
    }
  }
  return Status::OK();
}

Status CheckMeasure(size_t rule_index, const char* name, double v, double lo,
                    double hi) {
  if (!std::isfinite(v) || v < lo || v > hi) {
    return Status::InvalidArgument(
        StrFormat("rule %zu has %s = %g outside [%g, %g]", rule_index, name,
                  v, lo, hi));
  }
  return Status::OK();
}

// Decodes the payload into `set`, whose num_records the header supplied.
Status ParsePayload(const uint8_t* data, size_t size, uint32_t num_attrs,
                    StoredRuleSet* set) {
  ByteReader reader(data, size, "rule-set payload",
                    StatusCode::kInvalidArgument);
  QARM_RETURN_NOT_OK(reader.ReadF64(&set->minsup));
  QARM_RETURN_NOT_OK(reader.ReadF64(&set->minconf));
  QARM_RETURN_NOT_OK(reader.ReadF64(&set->interest_level));
  if (!std::isfinite(set->minsup) || !std::isfinite(set->minconf) ||
      !std::isfinite(set->interest_level)) {
    return Status::InvalidArgument(
        "rule set has non-finite mining parameters");
  }

  uint64_t metadata_size = 0;
  QARM_RETURN_NOT_OK(reader.ReadU64(&metadata_size));
  if (metadata_size > reader.remaining()) {
    return Status::InvalidArgument("metadata section exceeds the payload");
  }
  size_t consumed = 0;
  QARM_ASSIGN_OR_RETURN(
      set->attributes,
      DecodeAttributeMetadata(reader.here(),
                              static_cast<size_t>(metadata_size), num_attrs,
                              &consumed));
  if (consumed != metadata_size) {
    return Status::InvalidArgument("metadata section has trailing bytes");
  }
  QARM_RETURN_NOT_OK(reader.Skip(consumed));

  uint64_t num_rules = 0;
  QARM_RETURN_NOT_OK(reader.ReadU64(&num_rules));
  QARM_RETURN_NOT_OK(reader.NeedCount(num_rules, kQrsMinRuleBytes));
  // Rule ids are packed into 31 bits by the serving indexes; a file
  // anywhere near that limit is hostile (the division-form bound above
  // already caps real files far lower).
  if (num_rules > (1ull << 31)) {
    return Status::InvalidArgument(
        StrFormat("rule set declares %llu rules",
                  static_cast<unsigned long long>(num_rules)));
  }
  set->rules.resize(static_cast<size_t>(num_rules));
  for (size_t i = 0; i < set->rules.size(); ++i) {
    StoredRule& rule = set->rules[i];
    uint8_t num_ante = 0, num_cons = 0, interesting = 0, reserved = 0;
    QARM_RETURN_NOT_OK(reader.ReadU8(&num_ante));
    QARM_RETURN_NOT_OK(reader.ReadU8(&num_cons));
    QARM_RETURN_NOT_OK(reader.ReadU8(&interesting));
    QARM_RETURN_NOT_OK(reader.ReadU8(&reserved));
    if (num_ante == 0 || num_cons == 0) {
      return Status::InvalidArgument(
          StrFormat("rule %zu has an empty side", i));
    }
    rule.interesting = interesting != 0;
    QARM_RETURN_NOT_OK(reader.NeedCount(
        static_cast<uint64_t>(num_ante) + num_cons, kQrsItemBytes));
    QARM_RETURN_NOT_OK(ReadSide(&reader, i, "antecedent", num_ante,
                                set->attributes, &rule.antecedent));
    QARM_RETURN_NOT_OK(ReadSide(&reader, i, "consequent", num_cons,
                                set->attributes, &rule.consequent));
    // The sides must not share an attribute (a record-model itemset holds
    // at most one item per attribute). Both sides are sorted, so a merge
    // walk finds any collision in O(items).
    for (size_t a = 0, c = 0;
         a < rule.antecedent.size() && c < rule.consequent.size();) {
      const int32_t ante_attr = rule.antecedent[a].attr;
      const int32_t cons_attr = rule.consequent[c].attr;
      if (ante_attr == cons_attr) {
        return Status::InvalidArgument(StrFormat(
            "rule %zu uses attribute %d on both sides", i, ante_attr));
      }
      ante_attr < cons_attr ? ++a : ++c;
    }
    QARM_RETURN_NOT_OK(reader.ReadU64(&rule.count));
    if (rule.count > set->num_records) {
      return Status::InvalidArgument(StrFormat(
          "rule %zu counts %llu of %llu records", i,
          static_cast<unsigned long long>(rule.count),
          static_cast<unsigned long long>(set->num_records)));
    }
    QARM_RETURN_NOT_OK(reader.ReadF64(&rule.support));
    QARM_RETURN_NOT_OK(reader.ReadF64(&rule.confidence));
    QARM_RETURN_NOT_OK(reader.ReadF64(&rule.lift));
    QARM_RETURN_NOT_OK(CheckMeasure(i, "support", rule.support, 0.0, 1.0));
    QARM_RETURN_NOT_OK(
        CheckMeasure(i, "confidence", rule.confidence, 0.0, 1.0));
    QARM_RETURN_NOT_OK(CheckMeasure(i, "lift", rule.lift, 0.0,
                                    std::numeric_limits<double>::max()));
  }
  return reader.ExpectEnd();
}

}  // namespace

Result<StoredRuleSet> ParseRuleSet(const uint8_t* data, size_t size) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal("QRS reading requires a little-endian host");
  }
  QARM_ASSIGN_OR_RETURN(Envelope envelope,
                        ParseEnvelope(kQrsFormat, data, size));
  StoredRuleSet set;
  set.num_records = QbtReadU64(envelope.extra_header);
  QARM_RETURN_NOT_OK(ParsePayload(envelope.payload, envelope.payload_size,
                                  envelope.header_word, &set));
  return set;
}

Result<StoredRuleSet> ReadRuleSet(const std::string& path) {
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));
  Result<StoredRuleSet> set = ParseRuleSet(file->data(), file->size());
  if (!set.ok()) {
    return Status::Error(set.status().code(),
                         "'" + path + "': " + set.status().message());
  }
  return set;
}

}  // namespace qarm
