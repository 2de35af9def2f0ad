// Runtime CPU dispatch for the SIMD counting kernels and the CRC-32. The
// scan and reduce hot paths come in two tiers — the portable scalar
// reference and AVX2 — and the one that runs is chosen once per process
// from cpuid, overridable with the QARM_FORCE_ISA environment variable
// (scalar|avx2) for A/B measurement and for running the determinism suite
// against both kernel tables. `Crc32Update` (storage/crc32.h) folds with
// PCLMULQDQ when ActiveIsa() is kAvx2 *and* CpuHasClmul(), and runs its
// portable slicing-by-8 path otherwise, so QARM_FORCE_ISA=scalar exercises
// the portable CRC too.
//
// Determinism contract: every ISA produces byte-identical mined rules. The
// kernels only ever compute integer comparisons, integer sums, and
// popcounts, all of which are exact, so this holds structurally; the ISA
// determinism tests enforce it end to end. Both CRC paths compute the same
// polynomial, so every checksum is the same whichever one runs.
#ifndef QARM_COMMON_CPU_DISPATCH_H_
#define QARM_COMMON_CPU_DISPATCH_H_

#include <string_view>

namespace qarm {

// Instruction sets the counting kernels are specialized for, in increasing
// capability order (every CPU runs kScalar, which makes clamping a forced
// level well defined). The values are the wire encoding of a worker's isa
// stats field; 1 is unused.
enum class SimdIsa : int {
  kScalar = 0,
  kAvx2 = 2,
};

// Display name: "scalar", "avx2".
const char* IsaName(SimdIsa isa);

// Parses an ISA name (the QARM_FORCE_ISA grammar). Returns false on an
// unrecognized name.
bool ParseIsaName(std::string_view name, SimdIsa* isa);

// Best ISA this CPU supports, detected once via cpuid (always kScalar on
// non-x86 builds). Never affected by overrides.
SimdIsa DetectCpuIsa();

// Whether this CPU has the carry-less multiply instruction (PCLMULQDQ),
// detected once via cpuid; always false on non-x86 builds. It is separate
// from the SimdIsa ladder because it gates only the CRC, not the counting
// kernels. Never affected by overrides.
bool CpuHasClmul();

// The ISA the kernels dispatch to: DetectCpuIsa(), unless QARM_FORCE_ISA or
// a test override lowers it. A forced level above what the CPU supports is
// clamped down (with a warning) rather than crashing on an illegal
// instruction. Cheap enough for per-pass calls (one atomic load after
// initialization).
SimdIsa ActiveIsa();

// Test-only override of ActiveIsa(), taking precedence over QARM_FORCE_ISA.
// Clamped to DetectCpuIsa() like the environment override. Not thread-safe
// against concurrent passes; call between mining runs only.
void SetIsaForTest(SimdIsa isa);

// Removes the test override; ActiveIsa() falls back to env/detection.
void ClearIsaForTest();

}  // namespace qarm

#endif  // QARM_COMMON_CPU_DISPATCH_H_
