#include "storage/fault_injection.h"

#include <cstdlib>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"

namespace qarm {
namespace {

// Distinct stream constants so the faulted? decision and the kind choice
// for the same block are independent draws.
constexpr uint64_t kFaultStream = 0x6661756c74ULL;  // "fault"
constexpr uint64_t kKindStream = 0x6b696e64ULL;     // "kind"

double UnitUniform(uint64_t bits) {
  // Top 53 bits -> [0, 1).
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

Result<uint64_t> ParsePositive(std::string_view key, std::string_view text) {
  QARM_ASSIGN_OR_RETURN(uint64_t value, ParseUint64(text));
  if (value == 0) {
    return Status::InvalidArgument("fault spec: '" + std::string(key) +
                                   "' must be >= 1");
  }
  return value;
}

Result<uint32_t> ParseKinds(std::string_view text) {
  uint32_t kinds = 0;
  for (const std::string& name : Split(text, '+')) {
    if (name == "eio") {
      kinds |= static_cast<uint32_t>(FaultKind::kEio);
    } else if (name == "short") {
      kinds |= static_cast<uint32_t>(FaultKind::kShortRead);
    } else if (name == "crc") {
      kinds |= static_cast<uint32_t>(FaultKind::kCrc);
    } else if (name == "kill") {
      kinds |= static_cast<uint32_t>(FaultKind::kKill);
    } else if (name == "conn_reset") {
      kinds |= static_cast<uint32_t>(FaultKind::kConnReset);
    } else if (name == "stall") {
      kinds |= static_cast<uint32_t>(FaultKind::kStall);
    } else if (name == "partial_write") {
      kinds |= static_cast<uint32_t>(FaultKind::kPartialWrite);
    } else {
      return Status::InvalidArgument(
          "fault spec: unknown kind '" + name +
          "' (expected eio, short, crc, kill, conn_reset, stall, or "
          "partial_write, joined with '+')");
    }
  }
  if (kinds == 0) {
    return Status::InvalidArgument("fault spec: 'kinds' is empty");
  }
  return kinds;
}

}  // namespace

Result<FaultInjectionConfig> ParseFaultSpec(std::string_view spec) {
  FaultInjectionConfig config;
  if (StripWhitespace(spec).empty()) {
    return Status::InvalidArgument("fault spec is empty");
  }
  for (const std::string& pair : Split(spec, ',')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec: '" + pair +
                                     "' is not key=value");
    }
    const std::string_view key = StripWhitespace(
        std::string_view(pair).substr(0, eq));
    const std::string_view value = StripWhitespace(
        std::string_view(pair).substr(eq + 1));
    if (key == "seed") {
      QARM_ASSIGN_OR_RETURN(config.seed, ParseUint64(value));
    } else if (key == "rate") {
      QARM_ASSIGN_OR_RETURN(config.rate, ParseDouble(value));
      if (config.rate <= 0.0 || config.rate > 1.0) {
        return Status::InvalidArgument(
            "fault spec: 'rate' must be in (0, 1]");
      }
    } else if (key == "fails") {
      QARM_ASSIGN_OR_RETURN(config.fails_per_block,
                            ParsePositive(key, value));
    } else if (key == "after") {
      QARM_ASSIGN_OR_RETURN(config.after_reads, ParseUint64(value));
    } else if (key == "kinds") {
      QARM_ASSIGN_OR_RETURN(config.kinds, ParseKinds(value));
    } else if (key == "attempts") {
      QARM_ASSIGN_OR_RETURN(config.retry.max_attempts,
                            ParsePositive(key, value));
    } else if (key == "backoff") {
      QARM_ASSIGN_OR_RETURN(config.retry.initial_backoff_ms,
                            ParseDouble(value));
      if (config.retry.initial_backoff_ms < 0.0) {
        return Status::InvalidArgument(
            "fault spec: 'backoff' must be >= 0");
      }
    } else if (key == "stall") {
      QARM_ASSIGN_OR_RETURN(config.stall_ms, ParseDouble(value));
      if (config.stall_ms < 0.0) {
        return Status::InvalidArgument("fault spec: 'stall' must be >= 0");
      }
    } else {
      return Status::InvalidArgument(
          "fault spec: unknown key '" + std::string(key) +
          "' (expected seed, rate, fails, after, kinds, attempts, backoff, "
          "stall)");
    }
  }
  return config;
}

FaultInjectingRecordSource::FaultInjectingRecordSource(
    const RecordSource& inner, const FaultInjectionConfig& config)
    : inner_(&inner),
      config_(config),
      block_failures_(new std::atomic<uint64_t>[inner.num_blocks()]()) {
  // A record source can only inject storage faults; the network kinds
  // belong to the TCP transport. Mask them so a mixed spec works here.
  config_.kinds = StorageFaultKinds(config_.kinds);
}

bool FaultInjectingRecordSource::BlockIsFaulted(size_t b) const {
  const uint64_t bits =
      SplitMix64(config_.seed ^ kFaultStream ^
                 static_cast<uint64_t>(b) * 0x9e3779b97f4a7c15ULL);
  return UnitUniform(bits) < config_.rate;
}

FaultKind FaultInjectingRecordSource::BlockFaultKind(size_t b) const {
  FaultKind enabled[4];
  size_t n = 0;
  for (FaultKind kind : {FaultKind::kEio, FaultKind::kShortRead,
                         FaultKind::kCrc, FaultKind::kKill}) {
    if (config_.kinds & static_cast<uint32_t>(kind)) enabled[n++] = kind;
  }
  QARM_CHECK_GT(n, 0u);
  const uint64_t bits =
      SplitMix64(config_.seed ^ kKindStream ^
                 static_cast<uint64_t>(b) * 0x9e3779b97f4a7c15ULL);
  return enabled[bits % n];
}

Status FaultInjectingRecordSource::InjectOrRead(size_t b,
                                                BlockView* view) const {
  const uint64_t read_ordinal =
      total_reads_.fetch_add(1, std::memory_order_relaxed);
  if (config_.kinds != 0 && BlockIsFaulted(b) &&
      read_ordinal >= config_.after_reads) {
    // Process death is not a retryable read error: the first `fails`
    // incarnations die outright; a respawned reader (generation bumped)
    // survives the block. The budget is the generation, not a per-block
    // counter, because the counter dies with the process.
    if (BlockFaultKind(b) == FaultKind::kKill) {
      if (config_.generation < config_.fails_per_block) {
        std::_Exit(137);  // mimic SIGKILL's 128+9 exit status
      }
      return inner_->ReadBlock(b, view);
    }
    const uint64_t prior =
        block_failures_[b].fetch_add(1, std::memory_order_relaxed);
    if (prior < config_.fails_per_block) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      switch (BlockFaultKind(b)) {
        case FaultKind::kEio:
          return Status::IOError(
              StrFormat("injected EIO reading block %zu", b));
        case FaultKind::kShortRead:
          return Status::IOError(
              StrFormat("injected short read of block %zu", b));
        case FaultKind::kCrc:
          return Status::IOError(
              StrFormat("injected checksum mismatch in block %zu", b));
        case FaultKind::kKill:
        case FaultKind::kConnReset:
        case FaultKind::kStall:
        case FaultKind::kPartialWrite:
          // kKill is handled before the per-block budget above; the
          // network kinds never reach a record source (the constructor
          // masks them off — they live in the TCP transport).
          break;
      }
    }
    // Budget exhausted for this block: the "device" recovered.
    block_failures_[b].store(config_.fails_per_block,
                             std::memory_order_relaxed);
  }
  return inner_->ReadBlock(b, view);
}

Status FaultInjectingRecordSource::ReadBlock(size_t b, BlockView* view) const {
  uint64_t retries = 0;
  const Status status = RetryWithBackoff(
      config_.retry, /*key=*/static_cast<uint64_t>(b), &retries,
      [&]() { return InjectOrRead(b, view); });
  read_retries_.fetch_add(retries, std::memory_order_relaxed);
  return status;
}

ScanIoStats FaultInjectingRecordSource::io_stats() const {
  ScanIoStats stats = inner_->io_stats();
  stats.faults_injected += faults_injected_.load(std::memory_order_relaxed);
  stats.read_retries += read_retries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace qarm
