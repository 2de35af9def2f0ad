#include "common/cpu_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/logging.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define QARM_X86_DISPATCH 1
#else
#define QARM_X86_DISPATCH 0
#endif

namespace qarm {
namespace {

constexpr int kIsaUnset = -1;

// ActiveIsa() resolution, kIsaUnset until first use. Relaxed is enough: the
// value is write-once (or test-toggled between runs) and any racing reader
// simply re-derives the same value.
std::atomic<int> g_active_isa{kIsaUnset};
std::atomic<int> g_test_isa{kIsaUnset};

SimdIsa ClampToDetected(SimdIsa requested, const char* origin) {
  const SimdIsa detected = DetectCpuIsa();
  if (static_cast<int>(requested) <= static_cast<int>(detected)) {
    return requested;
  }
  QARM_LOG(Warning) << origin << " requests " << IsaName(requested)
                    << " but this CPU supports at most " << IsaName(detected)
                    << "; clamping";
  return detected;
}

SimdIsa ResolveActiveIsa() {
  const char* forced = std::getenv("QARM_FORCE_ISA");
  if (forced != nullptr && forced[0] != '\0') {
    SimdIsa isa;
    if (ParseIsaName(forced, &isa)) {
      return ClampToDetected(isa, "QARM_FORCE_ISA");
    }
    QARM_LOG(Warning) << "unrecognized QARM_FORCE_ISA value \"" << forced
                      << "\" (want scalar|avx2); using CPU detection";
  }
  return DetectCpuIsa();
}

}  // namespace

const char* IsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseIsaName(std::string_view name, SimdIsa* isa) {
  if (name == "scalar") {
    *isa = SimdIsa::kScalar;
  } else if (name == "avx2") {
    *isa = SimdIsa::kAvx2;
  } else {
    return false;
  }
  return true;
}

SimdIsa DetectCpuIsa() {
#if QARM_X86_DISPATCH
  // __builtin_cpu_supports reads cpuid once and caches; AVX2 implies the
  // OS saved YMM state per the builtin's semantics.
  static const SimdIsa detected = [] {
    // The AVX2 table also uses POPCNT, which every AVX2 CPU has; a CPU (or
    // VM) hiding it gets the scalar table.
    if (!__builtin_cpu_supports("popcnt")) return SimdIsa::kScalar;
    if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
    return SimdIsa::kScalar;
  }();
  return detected;
#else
  return SimdIsa::kScalar;
#endif
}

bool CpuHasClmul() {
#if QARM_X86_DISPATCH
  static const bool has = __builtin_cpu_supports("pclmul");
  return has;
#else
  return false;
#endif
}

SimdIsa ActiveIsa() {
  const int test = g_test_isa.load(std::memory_order_relaxed);
  if (test != kIsaUnset) return static_cast<SimdIsa>(test);
  int cached = g_active_isa.load(std::memory_order_relaxed);
  if (cached == kIsaUnset) {
    cached = static_cast<int>(ResolveActiveIsa());
    g_active_isa.store(cached, std::memory_order_relaxed);
  }
  return static_cast<SimdIsa>(cached);
}

void SetIsaForTest(SimdIsa isa) {
  g_test_isa.store(static_cast<int>(ClampToDetected(isa, "SetIsaForTest")),
                   std::memory_order_relaxed);
}

void ClearIsaForTest() {
  g_test_isa.store(kIsaUnset, std::memory_order_relaxed);
}

}  // namespace qarm
