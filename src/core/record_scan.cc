#include "core/record_scan.h"

#include <utility>

namespace qarm {

Result<std::unique_ptr<LocalRecordScan>> LocalRecordScan::Open(
    const RecordSource& source, const MinerOptions& options) {
  // No public constructor, so no make_unique.
  std::unique_ptr<LocalRecordScan> scan(new LocalRecordScan(source, options));
  if (!options.inject_faults_spec.empty()) {
    QARM_ASSIGN_OR_RETURN(FaultInjectionConfig config,
                          ParseFaultSpec(options.inject_faults_spec));
    scan->faulty_ =
        std::make_unique<FaultInjectingRecordSource>(source, config);
    scan->source_ = scan->faulty_.get();
  }
  return scan;
}

Result<ValueCounts> LocalRecordScan::ScanValueCounts(IndexRange blocks,
                                                     ScanIoStats* io) {
  const BlockRangeSource range(*source_, blocks.begin, blocks.end);
  return ItemCatalog::ScanValueCounts(range, options_.num_threads, io);
}

Status LocalRecordScan::PublishCatalog(const ItemCatalog& catalog) {
  catalog_ = &catalog;
  return Status::OK();
}

Result<PassCounters> LocalRecordScan::ScanCounters(const CountPlan& plan,
                                                   IndexRange blocks,
                                                   CountingStats* stats) {
  if (catalog_ == nullptr) {
    return Status::Internal("counting pass before the catalog was published");
  }
  const BlockRangeSource range(*source_, blocks.begin, blocks.end);
  return qarm::ScanCounters(range, *catalog_, plan, options_, stats);
}

}  // namespace qarm
