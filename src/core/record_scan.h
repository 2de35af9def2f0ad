// The record-scan seam: every read of records in a mining run goes through
// one RecordScan, over a range of blocks. A run has two kinds of scan, and
// both add up exactly across disjoint block ranges:
//
//   * pass 1's value counts (one count per attribute value), and
//   * each counting pass's counters for a CountPlan (core/
//     support_counting.h; grids, member counts and direct counts).
//
// The miner plans every pass, scans through the seam and reduces once, so
// the drivers differ only in which blocks they scan and what they add to
// the counts (ScanPolicy). There are two scans: LocalRecordScan below, in
// this process, and the distributed worker pool (dist/coordinator.h),
// which splits each range across its workers and adds their replies up in
// worker order.
#ifndef QARM_CORE_RECORD_SCAN_H_
#define QARM_CORE_RECORD_SCAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/candidate_gen.h"
#include "core/frequent_items.h"
#include "core/options.h"
#include "core/support_counting.h"
#include "storage/fault_injection.h"
#include "storage/record_source.h"

namespace qarm {

using ValueCounts = std::vector<std::vector<uint64_t>>;

class RecordScan {
 public:
  virtual ~RecordScan() = default;

  // Value counts of blocks [blocks.begin, blocks.end): one vector per
  // attribute, indexed by mapped value. `io` receives the scan's I/O.
  virtual Result<ValueCounts> ScanValueCounts(IndexRange blocks,
                                              ScanIoStats* io) = 0;

  // The catalog every later ScanCounters counts against, published once
  // it exists (built or restored from a checkpoint), before any pass.
  virtual Status PublishCatalog(const ItemCatalog& catalog) = 0;

  // The plan's counters over blocks [blocks.begin, blocks.end). Fills the
  // scan's fields of `stats` (threads, isa, io, replicated bytes, and the
  // counter build and scan times).
  virtual Result<PassCounters> ScanCounters(const CountPlan& plan,
                                            IndexRange blocks,
                                            CountingStats* stats) = 0;
};

// The in-process scan over `source`. When options.inject_faults_spec is
// set, every read goes through one FaultInjectingRecordSource over the
// whole source, so the schedule sees global block ids and counts reads
// across the whole run.
class LocalRecordScan : public RecordScan {
 public:
  // Fails on a malformed fault spec. `source` must outlive the scan.
  static Result<std::unique_ptr<LocalRecordScan>> Open(
      const RecordSource& source, const MinerOptions& options);

  Result<ValueCounts> ScanValueCounts(IndexRange blocks,
                                      ScanIoStats* io) override;
  Status PublishCatalog(const ItemCatalog& catalog) override;
  Result<PassCounters> ScanCounters(const CountPlan& plan, IndexRange blocks,
                                    CountingStats* stats) override;

 private:
  LocalRecordScan(const RecordSource& source, const MinerOptions& options)
      : source_(&source), options_(options) {}

  const RecordSource* source_;
  std::unique_ptr<FaultInjectingRecordSource> faulty_;
  MinerOptions options_;
  const ItemCatalog* catalog_ = nullptr;
};

// What a driver sets about a run's scans: which blocks each one covers,
// and what is added to its counts. This base class is the full mine:
// every block, nothing added. The incremental driver scans only the
// appended blocks where it can add the base run's counts (core/
// incremental_miner.h).
class ScanPolicy {
 public:
  virtual ~ScanPolicy() = default;

  // Pass 1: the blocks to scan of the source's `all`, then what to add to
  // their value counts.
  virtual IndexRange ValueCountBlocks(IndexRange all) { return all; }
  virtual void AddValueCounts(ValueCounts* /*counts*/) {}

  // The catalog the counting passes count against, once it exists.
  virtual void UseCatalog(const ItemCatalog& /*catalog*/) {}

  // A counting pass over `candidates`: the blocks to scan of `all`, then
  // what to add to the candidates' counts.
  virtual IndexRange CountBlocks(const CandidateStream& /*candidates*/,
                                 IndexRange all) {
    return all;
  }
  virtual void AddCounts(const CandidateStream& /*candidates*/,
                         std::vector<uint32_t>* /*counts*/) {}
};

}  // namespace qarm

#endif  // QARM_CORE_RECORD_SCAN_H_
