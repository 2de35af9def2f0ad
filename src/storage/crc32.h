// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). It checksums every
// QBT block on every read, the QBT footer and index, every distributed wire
// frame and the QCP/QRS envelopes, so it reads every byte of every scan.
// Two implementations of the one polynomial, dependency-free by design:
//   - a PCLMULQDQ fold (64 bytes per step, then a Barrett reduction), used
//     for inputs of 64 bytes or more when ActiveIsa() is kAvx2 and
//     CpuHasClmul() (common/cpu_dispatch.h);
//   - a portable slicing-by-8 table path, used otherwise and for the last
//     size % 16 bytes after the fold. QARM_FORCE_ISA=scalar selects it.
// Both give the same value for every input; only the speed differs.
#ifndef QARM_STORAGE_CRC32_H_
#define QARM_STORAGE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace qarm {

// CRC-32 of `size` bytes at `data`, with the conventional init/final
// inversion (matches zlib's crc32(0, data, size)).
uint32_t Crc32(const void* data, size_t size);

// Incremental form: feed `crc` the result of the previous call (start from
// kCrc32Init) and invert at the end with Crc32Finish. Crc32(p, n) ==
// Crc32Finish(Crc32Update(kCrc32Init, p, n)).
inline constexpr uint32_t kCrc32Init = 0xFFFFFFFFu;
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);
inline uint32_t Crc32Finish(uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

}  // namespace qarm

#endif  // QARM_STORAGE_CRC32_H_
