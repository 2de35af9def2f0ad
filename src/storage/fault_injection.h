// Deterministic I/O fault injection for crash-safety testing.
//
// FaultInjectingRecordSource decorates any RecordSource and fails a seeded,
// reproducible subset of block reads before delegating to the inner source.
// Whether block b is faulted — and with which fault kind — is a pure
// function of (seed, b), so a given spec produces the same fault schedule
// at any thread count and on every run. Each faulted block fails its first
// `fails` read attempts and then succeeds, modeling a transient device
// error; `fails` larger than the retry budget models a permanent failure
// (the read error escapes to the miner, like a crash mid-pass).
//
// The decorator retries its own injected failures with a RetryPolicy, the
// way a block-device driver retries below the filesystem; the inner source
// never sees these faults. Recovered faults are invisible to the mining
// output; only ScanIoStats records them.
//
// Spec grammar (CLI `--inject-faults=SPEC` and tests), comma-separated
// key=value pairs, all optional:
//
//   seed=N        schedule seed (default 1)
//   rate=F        fraction of blocks faulted, 0..1 (default 0.05)
//   fails=N       failed attempts per faulted block, >= 1 (default 1)
//   after=N       suppress injection for the first N block reads, letting a
//                 fault target a later pass (default 0)
//   kinds=K+K     subset of eio, short, crc, kill, conn_reset, stall,
//                 partial_write (default eio+short+crc)
//   attempts=N    decorator retry budget, >= 1 (default 4)
//   backoff=F     initial retry backoff in ms, >= 0 (default 0.01)
//   stall=F       how long a stall fault plays dead, ms (default 1000)
//
// The kinds split into two families. Storage kinds (eio, short, crc, kill)
// fault block reads through FaultInjectingRecordSource. Network kinds
// (conn_reset, stall, partial_write) fault a TCP worker's frame *writes*
// through dist/transport.h's TcpTransport; they share this grammar and the
// seed/rate/after/fails scheduling so one spec can exercise both layers.
// FaultInjectingRecordSource must only ever see a config whose kinds
// include at least one storage kind (StorageFaultKinds below).
#ifndef QARM_STORAGE_FAULT_INJECTION_H_
#define QARM_STORAGE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/retry.h"
#include "common/status.h"
#include "storage/record_source.h"

namespace qarm {

// Which error a faulted read reports. The decorator cannot corrupt the
// inner source's mapped bytes, so each kind surfaces as the Status that the
// real failure would produce.
enum class FaultKind : uint32_t {
  kEio = 1u << 0,        // device read error (EIO)
  kShortRead = 1u << 1,  // block truncated mid-read
  kCrc = 1u << 2,        // block checksum mismatch
  // Process death: the reading process _Exit()s mid-scan, modeling a
  // SIGKILL'd distributed worker. `fails` counts the incarnations that die
  // (a respawned worker sets `generation`; it survives once generation >=
  // fails), so the default fails=1 kills a worker exactly once and its
  // replacement replays the shard cleanly.
  kKill = 1u << 3,
  // Network kinds (TCP worker transport, dist/transport.h). Like kKill they
  // gate on generation < fails, so a reconnected session replays clean.
  kConnReset = 1u << 4,     // RST the connection instead of the write
  kStall = 1u << 5,         // play dead until the peer's deadline fires
  kPartialWrite = 1u << 6,  // half the frame lands, then the RST
};

// The storage (block-read) subset of a kinds mask.
inline uint32_t StorageFaultKinds(uint32_t kinds) {
  return kinds & (static_cast<uint32_t>(FaultKind::kEio) |
                  static_cast<uint32_t>(FaultKind::kShortRead) |
                  static_cast<uint32_t>(FaultKind::kCrc) |
                  static_cast<uint32_t>(FaultKind::kKill));
}

// The network (frame-write) subset of a kinds mask.
inline uint32_t NetFaultKinds(uint32_t kinds) {
  return kinds & (static_cast<uint32_t>(FaultKind::kConnReset) |
                  static_cast<uint32_t>(FaultKind::kStall) |
                  static_cast<uint32_t>(FaultKind::kPartialWrite));
}

struct FaultInjectionConfig {
  uint64_t seed = 1;
  double rate = 0.05;
  uint64_t fails_per_block = 1;
  uint64_t after_reads = 0;
  uint32_t kinds = static_cast<uint32_t>(FaultKind::kEio) |
                   static_cast<uint32_t>(FaultKind::kShortRead) |
                   static_cast<uint32_t>(FaultKind::kCrc);
  RetryPolicy retry{/*max_attempts=*/4, /*initial_backoff_ms=*/0.01,
                    /*backoff_multiplier=*/2.0, /*max_backoff_ms=*/1.0};
  // How long a network stall fault plays dead (spec key `stall`, ms). Must
  // exceed the peer's read deadline to actually look like a partition.
  double stall_ms = 1000.0;
  // Not part of the spec grammar: set programmatically by a respawned
  // distributed worker (0 = first incarnation). Gates kKill and the
  // network kinds only.
  uint64_t generation = 0;
};

// Parses the `--inject-faults` spec grammar above.
Result<FaultInjectionConfig> ParseFaultSpec(std::string_view spec);

class FaultInjectingRecordSource : public RecordSource {
 public:
  // Non-owning: `inner` must outlive this source.
  FaultInjectingRecordSource(const RecordSource& inner,
                             const FaultInjectionConfig& config);

  const std::vector<MappedAttribute>& attributes() const override {
    return inner_->attributes();
  }
  size_t num_rows() const override { return inner_->num_rows(); }
  size_t num_blocks() const override { return inner_->num_blocks(); }
  size_t block_rows(size_t b) const override { return inner_->block_rows(b); }
  size_t block_row_begin(size_t b) const override {
    return inner_->block_row_begin(b);
  }
  Status ReadBlock(size_t b, BlockView* view) const override;
  ScanIoStats io_stats() const override;

  // True when the schedule faults block b (independent of `after_reads`).
  bool BlockIsFaulted(size_t b) const;
  // The kind block b fails with, if faulted.
  FaultKind BlockFaultKind(size_t b) const;

 private:
  Status InjectOrRead(size_t b, BlockView* view) const;

  const RecordSource* inner_;
  FaultInjectionConfig config_;
  // Per-block failed-attempt counters; atomics because scans read blocks
  // from many workers at once.
  std::unique_ptr<std::atomic<uint64_t>[]> block_failures_;
  mutable std::atomic<uint64_t> total_reads_{0};
  mutable std::atomic<uint64_t> faults_injected_{0};
  mutable std::atomic<uint64_t> read_retries_{0};
};

}  // namespace qarm

#endif  // QARM_STORAGE_FAULT_INJECTION_H_
