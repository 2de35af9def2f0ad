// Deterministic fault injection for crash-safety testing: one seeded
// schedule for block reads and frame writes.
//
// Whether operation `key` of a site faults — a block id for a block read, a
// per-connection write ordinal for a frame write — and with which kind is a
// pure function of (seed, rate, kinds, site, key): ScheduledFault below.
// Reads and writes draw from separate streams, so one spec can exercise
// both layers without the two schedules correlating.
//
// An injected fault fails like the real one. FaultInjectingRecordSource
// decorates any RecordSource and fails every read of a scheduled block with
// the IOError a real failure of that kind returns. Nothing retries a block
// read, injected or real: the run stops with that Status, and a fault-free
// rerun with the same checkpoint path resumes from the last completed pass,
// the one recovery for a failed read.
//
// `fails` counts the incarnations that fault: every kind fires only while
// `generation` < `fails`. A single-process run is generation 0, so a read
// fault fires whenever fails >= 1; a respawned distributed worker or a
// reconnected TCP session raises its generation and, once generation
// reaches `fails`, replays clean.
//
// Spec grammar (CLI `--inject-faults=SPEC` and tests), comma-separated
// key=value pairs, all optional:
//
//   seed=N        schedule seed (default 1)
//   rate=F        fraction of keys faulted, 0..1 (default 0.05)
//   fails=N       incarnations that fault, >= 1 (default 1)
//   after=N       spare the first N operations of the site — block reads of
//                 this source, or frame writes of this connection — so a
//                 fault can target a later pass or skip the handshake
//                 (default 0)
//   kinds=K+K     subset of eio, short, crc, kill, conn_reset, stall,
//                 partial_write (default eio+short+crc)
//   stall=F       how long a stall fault plays dead, ms (default 1000)
//
// The kinds split into two families. Storage kinds (eio, short, crc, kill)
// fault block reads through FaultInjectingRecordSource. Network kinds
// (conn_reset, stall, partial_write) fault a TCP worker's frame writes
// through dist/transport.h's TcpTransport.
//
// `after` counts operations, not keys, so with `after` inside a pass the
// faulted read depends on the order the scan's threads read blocks in. An
// `after` that is a multiple of the block count lands on a pass boundary
// (passes are scan barriers) and faults the same reads at any thread count.
#ifndef QARM_STORAGE_FAULT_INJECTION_H_
#define QARM_STORAGE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/status.h"
#include "storage/record_source.h"

namespace qarm {

// Which error a faulted operation reports.
enum class FaultKind : uint32_t {
  // Storage kinds. The decorator cannot corrupt the inner source's mapped
  // bytes, so each surfaces as the Status the real failure produces.
  kEio = 1u << 0,        // device read error (EIO)
  kShortRead = 1u << 1,  // block truncated mid-read
  kCrc = 1u << 2,        // block checksum mismatch
  // Process death: the reading process _Exit()s mid-scan, modeling a
  // SIGKILL'd distributed worker.
  kKill = 1u << 3,
  // Network kinds (TCP worker transport, dist/transport.h).
  kConnReset = 1u << 4,     // RST the connection instead of the write
  kStall = 1u << 5,         // play dead until the peer's deadline fires
  kPartialWrite = 1u << 6,  // half the frame lands, then the RST
};

// Where a fault fires. Each site draws from its own pair of streams and
// picks among its own family of kinds.
enum class FaultSite { kBlockRead, kFrameWrite };

struct FaultInjectionConfig {
  uint64_t seed = 1;
  double rate = 0.05;
  uint64_t fails = 1;
  uint64_t after = 0;
  uint32_t kinds = static_cast<uint32_t>(FaultKind::kEio) |
                   static_cast<uint32_t>(FaultKind::kShortRead) |
                   static_cast<uint32_t>(FaultKind::kCrc);
  // How long a network stall fault plays dead (spec key `stall`, ms). Must
  // exceed the peer's read deadline to actually look like a partition.
  double stall_ms = 1000.0;
  // Not part of the spec grammar: set by a respawned distributed worker or
  // a reconnected session (0 = first incarnation).
  uint64_t generation = 0;
};

// Parses the `--inject-faults` spec grammar above.
Result<FaultInjectionConfig> ParseFaultSpec(std::string_view spec);

// True when `site` can fault at all under `config`: the spec names one of
// the site's kinds and this incarnation is below `fails`.
bool FaultsArmed(const FaultInjectionConfig& config, FaultSite site);

// The one seeded schedule: the kind operation `key` of `site` fails with,
// or nullopt when it is spared. Pure in (seed, rate, the site's kinds,
// site, key); the caller applies `after` to its own operation count and
// checks FaultsArmed first.
std::optional<FaultKind> ScheduledFault(const FaultInjectionConfig& config,
                                        FaultSite site, uint64_t key);

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
  // Fails a scheduled block's read, once `after` reads have passed, with
  // its kind's IOError (or exits, for kKill); otherwise reads `inner`.
  Status ReadBlock(size_t b, BlockView* view) const override;
  ScanIoStats io_stats() const override { return inner_->io_stats(); }

 private:
  const RecordSource* inner_;
  FaultInjectionConfig config_;
  bool armed_;
  mutable std::atomic<uint64_t> total_reads_{0};
};

}  // namespace qarm

#endif  // QARM_STORAGE_FAULT_INJECTION_H_
