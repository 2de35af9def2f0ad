#include "common/packed_key_table.h"

#include <algorithm>

#include "common/hash.h"
#include "common/macros.h"

namespace qarm {

void PackedKeyTable::Assign(std::vector<int32_t> words) {
  QARM_CHECK(width_ > 0 && words.size() % width_ == 0);
  words_ = std::move(words);
  slots_.clear();
  indexed_ = words_.empty();
}

uint64_t PackedKeyTable::Hash(const int32_t* key) const {
  return HashInt32Words(key, width_);
}

bool PackedKeyTable::KeyEquals(uint32_t id, const int32_t* key) const {
  const int32_t* stored = words_.data() + static_cast<size_t>(id) * width_;
  for (size_t i = 0; i < width_; ++i) {
    if (stored[i] != key[i]) return false;
  }
  return true;
}

void PackedKeyTable::Rehash(size_t n) {
  size_t capacity = 16;
  while (capacity < 2 * n) capacity *= 2;
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  const size_t count = size();
  QARM_CHECK_LT(count, static_cast<size_t>(kNotFound));
  for (size_t id = 0; id < count; ++id) {
    size_t slot = static_cast<size_t>(Hash(key(id))) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(id + 1);
  }
  indexed_ = true;
}

void PackedKeyTable::BuildIndex() {
  if (!indexed_) Rehash(size());
}

std::pair<uint32_t, bool> PackedKeyTable::Insert(const int32_t* key) {
  if (!indexed_ || 2 * (size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(size() + 1, 2 * size()));
  }
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(Hash(key)) & mask;
  while (slots_[slot] != 0) {
    const uint32_t id = slots_[slot] - 1;
    if (KeyEquals(id, key)) return {id, false};
    slot = (slot + 1) & mask;
  }
  const uint32_t id = static_cast<uint32_t>(size());
  QARM_CHECK_LT(id, kNotFound);
  words_.insert(words_.end(), key, key + width_);
  slots_[slot] = id + 1;
  return {id, true};
}

uint32_t PackedKeyTable::Find(const int32_t* key) const {
  QARM_CHECK(indexed_);
  if (slots_.empty()) return kNotFound;
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(Hash(key)) & mask;
  while (slots_[slot] != 0) {
    const uint32_t id = slots_[slot] - 1;
    if (KeyEquals(id, key)) return id;
    slot = (slot + 1) & mask;
  }
  return kNotFound;
}

}  // namespace qarm
