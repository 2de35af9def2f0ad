#include "storage/crc32.h"

#include "common/cpu_dispatch.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define QARM_X86_CRC 1
#include <immintrin.h>
#else
#define QARM_X86_CRC 0
#endif

namespace qarm {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

// Slicing-by-8 remainder tables for the reflected polynomial. t[0] is the
// classic byte table; t[k][i] is the CRC state after byte i is followed by
// k zero bytes, so one lookup per table advances the CRC by 8 bytes.
struct SliceTables {
  uint32_t t[8][256];
};

constexpr SliceTables MakeSliceTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPolynomial ^ (c >> 1) : c >> 1;
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr SliceTables kSlice = MakeSliceTables();

// Little-endian 32-bit load from any alignment; compiles to one load on
// little-endian targets.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// The portable path: 8 bytes per step through the sliced tables, then the
// byte table for the last size % 8 bytes.
uint32_t Crc32Slice8(uint32_t crc, const uint8_t* p, size_t size) {
  const auto& t = kSlice.t;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#if QARM_X86_CRC

// Carry-less multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain. Each pair of constants folds a 128-bit remainder
// forward by a fixed distance (512, 128 and then 64 bits); they are the
// paper's values for this polynomial, the same ones zlib uses.
alignas(16) constexpr uint64_t kFold512[2] = {0x154442bd4, 0x1c6e41596};
alignas(16) constexpr uint64_t kFold128[2] = {0x1751997d0, 0x0ccaa009e};
alignas(16) constexpr uint64_t kFold64[2] = {0x163cd6124, 0};
// P (reflected, with its x^32 term) and the Barrett constant floor(x^64/P).
alignas(16) constexpr uint64_t kBarrett[2] = {0x1db710641, 0x1f7011641};

// Folds the 128-bit remainder `acc` forward over 128 (or 512) bits with the
// matching constant pair `k` and adds `next`, the data that distance ahead.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i acc,
                                                              __m128i k,
                                                              __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load128(
    const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// CRC state after `size` bytes at `p`, starting from state `crc`. Requires
// size >= 64 and size % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32Clmul(uint32_t crc,
                                                             const uint8_t* p,
                                                             size_t size) {
  // Four independent 128-bit lanes, each folded 512 bits ahead per step.
  __m128i x0 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  size -= 64;
  const __m128i k512 =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kFold512));
  for (; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k512, Load128(p));
    x1 = Fold(x1, k512, Load128(p + 16));
    x2 = Fold(x2, k512, Load128(p + 32));
    x3 = Fold(x3, k512, Load128(p + 48));
  }

  // Fold the lanes into one, then any remaining 16-byte blocks into it.
  const __m128i k128 =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kFold128));
  __m128i x = Fold(x0, k128, x1);
  x = Fold(x, k128, x2);
  x = Fold(x, k128, x3);
  for (; size >= 16; p += 16, size -= 16) x = Fold(x, k128, Load128(p));

  // 128 -> 96 bits: fold the low 64 bits onto the high 64.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k128, 0x10));
  // 96 -> 64 bits: fold the low 32 bits onto the rest.
  const __m128i k64 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00));

  // Barrett reduction of the 64-bit remainder to the 32-bit CRC.
  const __m128i barrett =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

// Read per call so QARM_FORCE_ISA and SetIsaForTest select the portable
// path like they select the scalar counting kernels.
bool UseClmul() {
  return ActiveIsa() == SimdIsa::kAvx2 && CpuHasClmul();
}

#endif  // QARM_X86_CRC

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
#if QARM_X86_CRC
  if (size >= 64 && UseClmul()) {
    const size_t folded = size & ~size_t{15};
    crc = Crc32Clmul(crc, p, folded);
    p += folded;
    size -= folded;
  }
#endif
  return Crc32Slice8(crc, p, size);
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Finish(Crc32Update(kCrc32Init, data, size));
}

}  // namespace qarm
