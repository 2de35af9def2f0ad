#include "partition/item_labels.h"

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace qarm {

size_t ItemLabels::KeyHash::operator()(const Key& key) const {
  const int32_t words[3] = {key.attr, key.lo, key.hi};
  return static_cast<size_t>(HashInt32Words(words, 3));
}

const ItemLabel& ItemLabels::Get(int32_t attr, int32_t lo, int32_t hi) {
  const Key key{attr, lo, hi};
  auto it = labels_.find(key);
  if (it != labels_.end()) return it->second;

  const MappedAttribute& a = attribute(attr);
  ItemLabel label;
  label.display = a.DecodeRange(lo, hi);
  label.text = "<" + a.name + ": " + label.display + ">";
  label.csv_quote = label.text.find_first_of(",\"\r\n") != std::string::npos;
  label.json = "{\"attribute\":" + JsonEscape(a.name);
  if (a.kind == AttributeKind::kQuantitative) {
    const Interval raw = a.RawInterval(lo, hi);
    label.json += ",\"kind\":\"quantitative\",\"lo\":" + FormatDouble(raw.lo) +
                  ",\"hi\":" + FormatDouble(raw.hi);
  } else {
    label.json += ",\"kind\":\"categorical\",\"value\":" +
                  JsonEscape(label.display);
  }
  label.json += ",\"display\":" + JsonEscape(label.display) + "}";
  return labels_.emplace(key, std::move(label)).first->second;
}

const ItemLabel& ItemLabels::Find(int32_t attr, int32_t lo,
                                  int32_t hi) const {
  auto it = labels_.find(Key{attr, lo, hi});
  QARM_CHECK(it != labels_.end());
  return it->second;
}

}  // namespace qarm
