// Pins RetryWithBackoff's documented schedule: the pre-jitter delay before
// retry r is exactly min(initial * multiplier^(r-1), max), including the
// configurations where the old multiply-loop (`delay < max` as the loop
// guard) drifted one multiplier-step off — a decaying multiplier starting
// above the cap, and an initial delay already at the cap.
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/retry.h"
#include "common/status.h"

namespace qarm {
namespace {

TEST(RetryBackoffTest, BaseDelayFollowsClosedFormSchedule) {
  struct Case {
    double initial;
    double multiplier;
    double max;
    size_t retry;
    double expected;
  };
  const std::vector<Case> cases = {
      // Plain exponential growth under the cap.
      {1.0, 2.0, 100.0, 1, 1.0},
      {1.0, 2.0, 100.0, 2, 2.0},
      {1.0, 2.0, 100.0, 5, 16.0},
      {1.0, 2.0, 100.0, 7, 64.0},
      // First capped retry and every retry after it stay pinned at max.
      {1.0, 2.0, 100.0, 8, 100.0},
      {1.0, 2.0, 100.0, 9, 100.0},
      {1.0, 2.0, 100.0, 40, 100.0},
      // Initial delay exactly at the cap: capped from the first retry.
      {100.0, 2.0, 100.0, 1, 100.0},
      {100.0, 2.0, 100.0, 2, 100.0},
      // Initial delay above the cap.
      {250.0, 2.0, 100.0, 1, 100.0},
      {250.0, 2.0, 100.0, 3, 100.0},
      // Decaying multiplier starting above the cap: the closed form drops
      // below max; the old loop guard froze it at max forever.
      {400.0, 0.5, 100.0, 1, 100.0},
      {400.0, 0.5, 100.0, 2, 100.0},
      {400.0, 0.5, 100.0, 3, 100.0},
      {400.0, 0.5, 100.0, 4, 50.0},
      {400.0, 0.5, 100.0, 5, 25.0},
      // Multiplier 1: constant schedule.
      {7.5, 1.0, 100.0, 1, 7.5},
      {7.5, 1.0, 100.0, 20, 7.5},
      // retry=0 is treated like the first retry (no negative exponent).
      {3.0, 2.0, 100.0, 0, 3.0},
  };
  RetryPolicy policy;
  for (const Case& c : cases) {
    policy.initial_backoff_ms = c.initial;
    policy.backoff_multiplier = c.multiplier;
    policy.max_backoff_ms = c.max;
    EXPECT_DOUBLE_EQ(RetryBaseDelayMs(policy, c.retry), c.expected)
        << "initial=" << c.initial << " mult=" << c.multiplier
        << " max=" << c.max << " retry=" << c.retry;
  }
}

TEST(RetryBackoffTest, HugeRetryOrdinalSaturatesAtMax) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 100.0;
  // 2^4095 overflows double to inf; the cap must still hold.
  EXPECT_DOUBLE_EQ(RetryBaseDelayMs(policy, 4096), 100.0);
}

TEST(RetryBackoffTest, JitterScalesIntoHalfOpenUpperHalf) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 8.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 100.0;
  for (size_t retry = 1; retry <= 6; ++retry) {
    for (uint64_t key = 0; key < 16; ++key) {
      const double base = RetryBaseDelayMs(policy, retry);
      const double jittered = RetryBackoffMs(policy, retry, key);
      EXPECT_GE(jittered, 0.5 * base);
      EXPECT_LT(jittered, base);
    }
  }
  // Determinism: the same (policy, retry, key) always yields the same delay.
  EXPECT_DOUBLE_EQ(RetryBackoffMs(policy, 3, 42),
                   RetryBackoffMs(policy, 3, 42));
}

TEST(RetryBackoffTest, RetryWithBackoffCountsRetriesAndStopsAtBudget) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 0.0;  // no sleeping in tests
  policy.max_backoff_ms = 0.0;
  size_t calls = 0;
  const Status failed = RetryWithBackoff(policy, /*key=*/1, [&] {
    ++calls;
    return Status::IOError("always fails");
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(calls, 4u);  // the first attempt and three retries

  calls = 0;
  const Status ok = RetryWithBackoff(policy, /*key=*/1, [&] {
    ++calls;
    return calls < 3 ? Status::IOError("transient") : Status::OK();
  });
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(calls, 3u);
}

}  // namespace
}  // namespace qarm
