#include <cstdint>
#include <string>

#include "common/string_util.h"
#include "storage/attr_metadata.h"
#include "storage/byte_reader.h"
#include "storage/rules_format.h"

namespace qarm {
namespace {

void AppendItems(std::string* out, const std::vector<StoredItem>& items) {
  for (const StoredItem& item : items) {
    QbtAppendI32(out, item.attr);
    QbtAppendI32(out, item.lo);
    QbtAppendI32(out, item.hi);
  }
}

std::string EncodePayload(const StoredRuleSet& set) {
  std::string out;
  QbtAppendF64(&out, set.minsup);
  QbtAppendF64(&out, set.minconf);
  QbtAppendF64(&out, set.interest_level);
  const std::string metadata = EncodeAttributeMetadata(set.attributes);
  QbtAppendU64(&out, metadata.size());
  out.append(metadata);
  QbtAppendU64(&out, set.rules.size());
  for (const StoredRule& rule : set.rules) {
    out.push_back(static_cast<char>(rule.antecedent.size()));
    out.push_back(static_cast<char>(rule.consequent.size()));
    out.push_back(rule.interesting ? 1 : 0);
    out.push_back(0);
    AppendItems(&out, rule.antecedent);
    AppendItems(&out, rule.consequent);
    QbtAppendU64(&out, rule.count);
    QbtAppendF64(&out, rule.support);
    QbtAppendF64(&out, rule.confidence);
    QbtAppendF64(&out, rule.lift);
  }
  return out;
}

}  // namespace

Status WriteRuleSet(const StoredRuleSet& set, const std::string& path,
                    uint64_t* bytes_written) {
  for (size_t i = 0; i < set.rules.size(); ++i) {
    const StoredRule& rule = set.rules[i];
    if (rule.antecedent.empty() || rule.consequent.empty()) {
      return Status::InvalidArgument(
          StrFormat("rule %zu has an empty side", i));
    }
    if (rule.antecedent.size() > 255 || rule.consequent.size() > 255) {
      return Status::InvalidArgument(
          StrFormat("rule %zu has more than 255 items per side", i));
    }
  }

  std::string num_records;
  QbtAppendU64(&num_records, set.num_records);
  const std::string bytes = EncodeEnvelope(
      kQrsFormat, static_cast<uint32_t>(set.attributes.size()), num_records,
      EncodePayload(set));
  QARM_RETURN_NOT_OK(WriteFileAtomic(path, bytes));
  if (bytes_written != nullptr) *bytes_written = bytes.size();
  return Status::OK();
}

}  // namespace qarm
