// RetryPolicy: bounded retries with exponential backoff and deterministic
// jitter. The one user is the distributed coordinator's connect to a TCP
// worker (dist/coordinator.cc), which rides out a worker still starting to
// listen. Block reads are not retried: a failed read stops the run, and a
// rerun resumes from its checkpoint. The jitter draws from SplitMix64 keyed
// by (seed, key, attempt), so a given policy retries at identical delays on
// every run and on every platform.
#ifndef QARM_COMMON_RETRY_H_
#define QARM_COMMON_RETRY_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/status.h"

namespace qarm {

struct RetryPolicy {
  // Total attempts, including the first; 1 (the default) disables retries.
  size_t max_attempts = 1;
  // Delay before retry r (1-based) is
  //   min(initial_backoff_ms * backoff_multiplier^(r-1), max_backoff_ms)
  // scaled by a deterministic jitter factor in [0.5, 1.0).
  double initial_backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 100.0;
  uint64_t jitter_seed = 0x7261746c72796aULL;
};

// The capped pre-jitter delay for retry `retry` (1-based): exactly
//   min(initial_backoff_ms * backoff_multiplier^(retry-1), max_backoff_ms).
// Closed form rather than a multiply loop: the loop's `delay < max` guard
// stopped compounding one step early in edge configurations (a multiplier
// below 1 decaying from above the cap, an initial delay at the cap), so the
// retry after the cap was first hit could sit one multiplier-step off the
// documented schedule. pow() also cannot overflow-accumulate: an infinite
// intermediate still caps at max_backoff_ms through std::min.
inline double RetryBaseDelayMs(const RetryPolicy& policy, size_t retry) {
  const double steps = retry > 0 ? static_cast<double>(retry - 1) : 0.0;
  double delay =
      policy.initial_backoff_ms * std::pow(policy.backoff_multiplier, steps);
  if (!(delay >= 0.0)) delay = 0.0;  // NaN or negative inputs -> no sleep
  return std::min(delay, policy.max_backoff_ms);
}

// Backoff (milliseconds) to sleep before retry `retry` (1-based) of the
// operation identified by `key` (e.g. a block index). Deterministic in
// (policy, retry, key): RetryBaseDelayMs scaled by jitter in [0.5, 1.0).
inline double RetryBackoffMs(const RetryPolicy& policy, size_t retry,
                             uint64_t key) {
  const double delay = RetryBaseDelayMs(policy, retry);
  const uint64_t h =
      SplitMix64(policy.jitter_seed ^ (key * 0x9e3779b97f4a7c15ULL) ^ retry);
  // 53 mantissa bits -> uniform [0, 1); jitter scales into [0.5, 1.0) so
  // backoff never collapses to zero and concurrent retriers desynchronize.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return delay * (0.5 + 0.5 * u);
}

// Runs `fn` (a Status-returning callable) until it succeeds or
// `policy.max_attempts` attempts are exhausted, sleeping the jittered
// backoff between attempts. Returns the final Status (the last failure
// verbatim — messages stay intact for matching and logging).
template <typename Fn>
Status RetryWithBackoff(const RetryPolicy& policy, uint64_t key, Fn&& fn) {
  const size_t max_attempts = std::max<size_t>(1, policy.max_attempts);
  Status status;
  for (size_t attempt = 1;; ++attempt) {
    status = fn();
    if (status.ok() || attempt >= max_attempts) return status;
    const double delay_ms = RetryBackoffMs(policy, attempt, key);
    if (delay_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
  }
}

}  // namespace qarm

#endif  // QARM_COMMON_RETRY_H_
