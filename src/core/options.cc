#include "core/options.h"

#include <cmath>

#include "common/string_util.h"
#include "storage/fault_injection.h"

namespace qarm {

Status MinerOptions::Validate() const {
  // The finiteness checks come first: NaN compares false against every
  // range bound, so "minsup <= 0 || minsup > 1" alone would wave NaN
  // through and let it reach Equation 2 arithmetic.
  if (!std::isfinite(minsup) || minsup <= 0.0 || minsup > 1.0) {
    return Status::InvalidArgument(
        StrFormat("minsup must be in (0,1], got %g", minsup));
  }
  if (!std::isfinite(minconf) || minconf < 0.0 || minconf > 1.0) {
    return Status::InvalidArgument(
        StrFormat("minconf must be in [0,1], got %g", minconf));
  }
  if (!std::isfinite(max_support) || max_support < 0.0 ||
      max_support > 1.0) {
    return Status::InvalidArgument(
        StrFormat("max_support must be in [0,1], got %g", max_support));
  }
  if (max_support > 0.0 && max_support < minsup) {
    return Status::InvalidArgument(StrFormat(
        "max_support (%g) must be at least minsup (%g)", max_support,
        minsup));
  }
  if (!std::isfinite(partial_completeness) ||
      (num_intervals_override == 0 && partial_completeness <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("partial completeness level must be > 1, got %g",
                  partial_completeness));
  }
  if (!std::isfinite(interest_level) || interest_level < 0.0) {
    return Status::InvalidArgument(
        StrFormat("interest level must be >= 0, got %g", interest_level));
  }
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        StrFormat("num_threads must be at most %zu, got %zu", kMaxThreads,
                  num_threads));
  }
  if (num_workers > kMaxWorkers) {
    return Status::InvalidArgument(
        StrFormat("num_workers must be at most %zu, got %zu", kMaxWorkers,
                  num_workers));
  }
  if (!worker_endpoints.empty()) {
    if (worker_endpoints.size() > kMaxWorkers) {
      return Status::InvalidArgument(StrFormat(
          "at most %zu worker endpoints are supported, got %zu", kMaxWorkers,
          worker_endpoints.size()));
    }
    if (num_workers > 1) {
      return Status::InvalidArgument(
          "--workers (forked) and --worker=HOST:PORT (TCP) are mutually "
          "exclusive; the endpoint list already fixes the worker count");
    }
    if (dist_connect_attempts == 0) {
      return Status::InvalidArgument(
          "dist_connect_attempts must be >= 1");
    }
    if (!std::isfinite(dist_connect_backoff_ms) ||
        dist_connect_backoff_ms < 0.0) {
      return Status::InvalidArgument(StrFormat(
          "dist_connect_backoff_ms must be finite and >= 0, got %g",
          dist_connect_backoff_ms));
    }
  }
  // Forked and TCP workers run the same session protocol, so both honour
  // the read/write deadline and the heartbeat interval.
  if (!worker_endpoints.empty() || num_workers > 1) {
    if (dist_io_timeout_ms == 0) {
      return Status::InvalidArgument(
          "dist_io_timeout_ms must be positive for distributed mining — an "
          "unbounded read can hang on a silent or partitioned worker");
    }
    if (dist_heartbeat_ms >= dist_io_timeout_ms) {
      return Status::InvalidArgument(StrFormat(
          "dist_heartbeat_ms (%llu) must be below dist_io_timeout_ms "
          "(%llu), or a healthy worker trips the read deadline mid-pass",
          static_cast<unsigned long long>(dist_heartbeat_ms),
          static_cast<unsigned long long>(dist_io_timeout_ms)));
    }
  }
  if (!checkpoint_path.empty()) {
    if (checkpoint_every_pass == 0) {
      return Status::InvalidArgument(
          "checkpoint_every_pass must be >= 1 when a checkpoint path is "
          "set");
    }
    if (checkpoint_path.back() == '/') {
      return Status::InvalidArgument(
          "checkpoint path must name a file, not a directory: '" +
          checkpoint_path + "'");
    }
  } else if (append_mode) {
    return Status::InvalidArgument(
        "append mode requires a checkpoint path (the completed run's "
        "checkpoint is the incremental base)");
  }
  if (!inject_faults_spec.empty()) {
    // Surface a malformed spec here, at options time, rather than as a
    // mysterious failure mid-pass.
    QARM_RETURN_NOT_OK(ParseFaultSpec(inject_faults_spec).status());
  }
  return Status::OK();
}

}  // namespace qarm
