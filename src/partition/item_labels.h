// ItemLabels — how an <attr, lo, hi> item becomes bytes, decided once per
// item. Every rule output (core/report.h: the mine text, CSV and JSON
// formats, `qarm rules dump`, and the serving engine's bodies) renders its
// items from this table: an item's display text (MappedAttribute::
// DecodeRange), its "<name: display>" text form and its JSON object are
// built the first time the item is asked for and reused for every later
// rule that holds it. The rule catalog fills its table while it loads, so
// serving threads only read it (Find) and take no lock.
#ifndef QARM_PARTITION_ITEM_LABELS_H_
#define QARM_PARTITION_ITEM_LABELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "partition/mapped_table.h"

namespace qarm {

// One item's rendered forms.
struct ItemLabel {
  // "20..29", "Yes", or a taxonomy node's name (DecodeRange).
  std::string display;
  // "<Age: 20..29>".
  std::string text;
  // {"attribute":"Age","kind":"quantitative","lo":20,"hi":29,
  //  "display":"20..29"}: lo/hi are the raw bounds; a categorical item
  // carries "value" (its label or node name) instead.
  std::string json;
  // True when `text` holds a character a CSV field must quote.
  bool csv_quote = false;
};

class ItemLabels {
 public:
  // Labels items over `attributes`, which must outlive the table.
  explicit ItemLabels(const std::vector<MappedAttribute>* attributes)
      : attributes_(attributes) {}

  // The label of <attr, lo, hi>, built on first use.
  const ItemLabel& Get(int32_t attr, int32_t lo, int32_t hi);

  // The label of an item Get() has built. Reads only, so any number of
  // threads may share a filled table.
  const ItemLabel& Find(int32_t attr, int32_t lo, int32_t hi) const;

  const MappedAttribute& attribute(int32_t attr) const {
    return (*attributes_)[static_cast<size_t>(attr)];
  }
  size_t size() const { return labels_.size(); }

 private:
  struct Key {
    int32_t attr;
    int32_t lo;
    int32_t hi;
    bool operator==(const Key& other) const {
      return attr == other.attr && lo == other.lo && hi == other.hi;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  const std::vector<MappedAttribute>* attributes_;
  // Node-based, so a returned reference stays valid as the table grows.
  std::unordered_map<Key, ItemLabel, KeyHash> labels_;
};

}  // namespace qarm

#endif  // QARM_PARTITION_ITEM_LABELS_H_
