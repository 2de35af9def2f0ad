// Shared hashing for small integer sequences. Every hashed key in QARM —
// super-candidate group keys, frequent itemsets, the interest evaluator's
// wildcard keys and rule signatures — is a short run of small int32 values
// (attribute indices, item ids) in a PackedKeyTable
// (common/packed_key_table.h). Plain FNV-1a leaves the *low* bits of such
// keys poorly mixed, and the table masks the hash with its power-of-two
// slot count, so structurally similar keys would pile into a handful of
// slots. The fix: finalize FNV-1a with a splitmix64-style 64->64-bit mixer
// so short small-integer keys spread over the whole 64-bit range. This
// header is the single definition of that scheme.
#ifndef QARM_COMMON_HASH_H_
#define QARM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace qarm {

// splitmix64: the statistically strong 64->64-bit mixer this header's
// hashes finalize with. Also used directly wherever a cheap deterministic
// stream of well-mixed bits is needed from a structured key (fault-injection
// schedules, retry jitter): SplitMix64(seed ^ f(key)) is stateless and
// identical across platforms and thread schedules.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over 32-bit words, finalized with splitmix64's mixer.
inline uint64_t HashInt32Words(const int32_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint32_t>(data[i]);
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace qarm

#endif  // QARM_COMMON_HASH_H_
