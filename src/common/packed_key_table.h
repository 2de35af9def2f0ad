// A flat table of fixed-width int32 keys with an open-addressing index.
//
// Keys live back to back in one int32 array, in insertion order, and each
// key's position in that order is its dense id. The index maps a key to its
// id through a power-of-two slot array probed linearly, hashed with the
// shared HashInt32Words (common/hash.h). Nothing is allocated per key, so
// millions of short keys — super-candidate group keys, frequent itemsets,
// wildcard keys — cost their words plus one 32-bit slot each.
#ifndef QARM_COMMON_PACKED_KEY_TABLE_H_
#define QARM_COMMON_PACKED_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qarm {

class PackedKeyTable {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  explicit PackedKeyTable(size_t width = 1) : width_(width) {}

  size_t size() const { return width_ == 0 ? 0 : words_.size() / width_; }
  bool empty() const { return words_.empty(); }

  const int32_t* key(size_t id) const { return words_.data() + id * width_; }
  // Every key, `width` words each, in id order.
  const std::vector<int32_t>& words() const { return words_; }

  // Adopts `words` (a multiple of `width` long) as the keys, in order, with
  // no index; BuildIndex adds one when lookups are needed.
  void Assign(std::vector<int32_t> words);

  // Returns the id of `key` (width words), appending it first when absent;
  // `second` is true when it was appended. Keeps the index current.
  std::pair<uint32_t, bool> Insert(const int32_t* key);

  // Indexes every key (no-op when already indexed). Keys must be distinct.
  void BuildIndex();

  // The id of `key`, or kNotFound. Requires the index.
  uint32_t Find(const int32_t* key) const;

 private:
  uint64_t Hash(const int32_t* key) const;
  bool KeyEquals(uint32_t id, const int32_t* key) const;
  // Rebuilds the slots with room for `n` keys at load <= 1/2.
  void Rehash(size_t n);

  size_t width_;
  std::vector<int32_t> words_;
  // id + 1 per occupied slot, 0 when empty; size is a power of two.
  std::vector<uint32_t> slots_;
  bool indexed_ = true;  // an empty table is trivially indexed
};

}  // namespace qarm

#endif  // QARM_COMMON_PACKED_KEY_TABLE_H_
