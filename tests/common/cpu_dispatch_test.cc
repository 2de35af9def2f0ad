// The dispatch has two tiers, scalar and avx2. A QARM_FORCE_ISA value that
// names neither (such as the retired "sse42") is reported and ignored: the
// process runs the ISA the CPU detection picks.
#include "common/cpu_dispatch.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace qarm {
namespace {

TEST(CpuDispatchTest, ParsesExactlyTheTwoTierNames) {
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
    SimdIsa parsed = SimdIsa::kScalar;
    ASSERT_TRUE(ParseIsaName(IsaName(isa), &parsed)) << IsaName(isa);
    EXPECT_EQ(parsed, isa);
  }
  for (const char* name : {"sse42", "sse4.2", "AVX2", "", "avx512"}) {
    SimdIsa parsed = SimdIsa::kScalar;
    EXPECT_FALSE(ParseIsaName(name, &parsed)) << name;
  }
}

// ActiveIsa() reads the environment once per process, so the check runs in
// a freshly started child.
TEST(CpuDispatchDeathTest, UnrecognizedForcedIsaWarnsAndRunsDetected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("QARM_FORCE_ISA", "sse42", /*overwrite=*/1);
        std::_Exit(ActiveIsa() == DetectCpuIsa() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0),
      "unrecognized QARM_FORCE_ISA value \"sse42\" \\(want scalar\\|avx2\\); "
      "using CPU detection");
}

}  // namespace
}  // namespace qarm
