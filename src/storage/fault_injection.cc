#include "storage/fault_injection.h"

#include <bit>
#include <cstdlib>

#include "common/hash.h"
#include "common/string_util.h"

namespace qarm {
namespace {

// Per site, distinct stream constants so the faulted? decision and the
// kind choice for one key are independent draws.
struct FaultStreams {
  uint64_t fault;
  uint64_t kind;
};
constexpr FaultStreams kBlockReadStreams = {0x6661756c74ULL,  // "fault"
                                            0x6b696e64ULL};   // "kind"
constexpr FaultStreams kFrameWriteStreams = {0x6e657466ULL,   // "netf"
                                             0x6e6b696eULL};  // "nkin"

constexpr uint32_t kBlockReadKinds =
    static_cast<uint32_t>(FaultKind::kEio) |
    static_cast<uint32_t>(FaultKind::kShortRead) |
    static_cast<uint32_t>(FaultKind::kCrc) |
    static_cast<uint32_t>(FaultKind::kKill);
constexpr uint32_t kFrameWriteKinds =
    static_cast<uint32_t>(FaultKind::kConnReset) |
    static_cast<uint32_t>(FaultKind::kStall) |
    static_cast<uint32_t>(FaultKind::kPartialWrite);

uint32_t SiteKinds(const FaultInjectionConfig& config, FaultSite site) {
  return config.kinds & (site == FaultSite::kBlockRead ? kBlockReadKinds
                                                       : kFrameWriteKinds);
}

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
      QARM_ASSIGN_OR_RETURN(config.fails, ParsePositive(key, value));
    } else if (key == "after") {
      QARM_ASSIGN_OR_RETURN(config.after, ParseUint64(value));
    } else if (key == "kinds") {
      QARM_ASSIGN_OR_RETURN(config.kinds, ParseKinds(value));
    } else if (key == "stall") {
      QARM_ASSIGN_OR_RETURN(config.stall_ms, ParseDouble(value));
      if (config.stall_ms < 0.0) {
        return Status::InvalidArgument("fault spec: 'stall' must be >= 0");
      }
    } else {
      return Status::InvalidArgument(
          "fault spec: unknown key '" + std::string(key) +
          "' (expected seed, rate, fails, after, kinds, stall)");
    }
  }
  return config;
}

bool FaultsArmed(const FaultInjectionConfig& config, FaultSite site) {
  return SiteKinds(config, site) != 0 && config.generation < config.fails;
}

std::optional<FaultKind> ScheduledFault(const FaultInjectionConfig& config,
                                        FaultSite site, uint64_t key) {
  const FaultStreams& streams =
      site == FaultSite::kBlockRead ? kBlockReadStreams : kFrameWriteStreams;
  const uint64_t mixed_key = key * 0x9e3779b97f4a7c15ULL;
  if (UnitUniform(SplitMix64(config.seed ^ streams.fault ^ mixed_key)) >=
      config.rate) {
    return std::nullopt;
  }
  const uint32_t kinds = SiteKinds(config, site);
  if (kinds == 0) return std::nullopt;
  // The n-th enabled kind, lowest bit first.
  uint64_t n = SplitMix64(config.seed ^ streams.kind ^ mixed_key) %
               static_cast<uint64_t>(std::popcount(kinds));
  uint32_t rest = kinds;
  for (; n > 0; --n) rest &= rest - 1;  // drop the lowest enabled kind
  return static_cast<FaultKind>(1u << std::countr_zero(rest));
}

FaultInjectingRecordSource::FaultInjectingRecordSource(
    const RecordSource& inner, const FaultInjectionConfig& config)
    : inner_(&inner),
      config_(config),
      armed_(FaultsArmed(config, FaultSite::kBlockRead)) {}

Status FaultInjectingRecordSource::ReadBlock(size_t b, BlockView* view) const {
  const uint64_t read_ordinal =
      total_reads_.fetch_add(1, std::memory_order_relaxed);
  const std::optional<FaultKind> kind =
      armed_ && read_ordinal >= config_.after
          ? ScheduledFault(config_, FaultSite::kBlockRead, b)
          : std::nullopt;
  if (!kind.has_value()) return inner_->ReadBlock(b, view);
  if (*kind == FaultKind::kKill) {
    std::_Exit(137);  // mimic SIGKILL's 128+9 exit status
  }
  switch (*kind) {
    case FaultKind::kEio:
      return Status::IOError(StrFormat("injected EIO reading block %zu", b));
    case FaultKind::kShortRead:
      return Status::IOError(
          StrFormat("injected short read of block %zu", b));
    case FaultKind::kCrc:
    default:  // a block read draws storage kinds only
      return Status::IOError(
          StrFormat("injected checksum mismatch in block %zu", b));
  }
}

}  // namespace qarm
