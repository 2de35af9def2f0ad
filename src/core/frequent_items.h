// Pass 1 of the mining algorithm (step 3 of Section 2.1): find the support
// of every attribute value, combine adjacent quantitative values/intervals
// into ranges while their joint support stays within max-support, and emit
// the frequent items. Also applies the Lemma 5 interest prune (quantitative
// items with support above 1/R can never be R-interesting on support).
#ifndef QARM_CORE_FREQUENT_ITEMS_H_
#define QARM_CORE_FREQUENT_ITEMS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/item.h"
#include "core/options.h"
#include "partition/mapped_table.h"
#include "storage/checkpoint_format.h"
#include "storage/record_source.h"

namespace qarm {

// Immutable catalog of the frequent items plus the per-attribute marginal
// value counts (the marginals also serve the Section 4 expected-value
// formulas).
class ItemCatalog {
 public:
  // Builds the catalog in one block-streamed scan of `source`. Fails only
  // when a block read fails (e.g. a QBT checksum mismatch). `io`, when
  // non-null, receives the I/O performed by this scan.
  static Result<ItemCatalog> Build(const RecordSource& source,
                                   const MinerOptions& options,
                                   ScanIoStats* io = nullptr);

  // Builds the catalog in one scan of an in-memory `table` (reads cannot
  // fail).
  static ItemCatalog Build(const MappedTable& table,
                           const MinerOptions& options);

  // The two halves of Build, split so distributed mining can run them on
  // different processes: each worker scans its block range's value counts
  // (ScanValueCounts over a BlockRangeSource), the coordinator sums the
  // per-shard counts in worker order and derives the catalog once.
  //
  // ScanValueCounts returns one count vector per attribute (indexed by
  // mapped value), sharded across `num_threads` workers.
  static Result<std::vector<std::vector<uint64_t>>> ScanValueCounts(
      const RecordSource& source, size_t num_threads,
      ScanIoStats* io = nullptr);

  // Derives the catalog from already-merged value counts. `source` supplies
  // the schema and total row count (min-support thresholds come from the
  // full table, not a shard). Rejects counts whose shape does not match the
  // source. Consumes `value_counts`.
  static Result<ItemCatalog> BuildFromValueCounts(
      const RecordSource& source, const MinerOptions& options,
      std::vector<std::vector<uint64_t>> value_counts);

  // Checkpoint support: Snapshot captures the catalog's full state as the
  // storage-neutral checkpoint structure; Restore rebuilds a catalog from
  // that structure without re-scanning the data (the derived prefix sums
  // are recomputed from the saved value counts). Restore rejects a snapshot whose shape
  // does not match `source`.
  CheckpointCatalog Snapshot() const;
  static Result<ItemCatalog> Restore(const RecordSource& source,
                                     const CheckpointCatalog& saved);

  size_t num_items() const { return items_.size(); }
  const RangeItem& item(int32_t id) const {
    return items_[static_cast<size_t>(id)];
  }
  uint64_t item_count(int32_t id) const {
    return item_counts_[static_cast<size_t>(id)];
  }
  size_t num_records() const { return num_records_; }

  // Converts an itemset of item ids into explicit ranges.
  RangeItemset Decode(const std::vector<int32_t>& ids) const {
    return Decode(ids.data(), ids.size());
  }
  RangeItemset Decode(const int32_t* ids, size_t k) const;

  // The id of the item with exactly `item`'s attribute and range, or -1
  // when the catalog holds no such item.
  int32_t FindItem(const RangeItem& item) const;

  // Marginal support count / fraction of an arbitrary range of `attr`
  // (mapped domain, clipped).
  uint64_t RangeCount(int32_t attr, int32_t lo, int32_t hi) const;
  double RangeSupport(int32_t attr, int32_t lo, int32_t hi) const;

  // Raw per-value counts of one attribute (partial-completeness reporting).
  const std::vector<uint64_t>& value_counts(size_t attr) const {
    return value_counts_[attr];
  }

  // Number of quantitative items dropped by the Lemma 5 prune.
  size_t items_pruned_by_interest() const {
    return items_pruned_by_interest_;
  }

 private:
  ItemCatalog() = default;

  // Recomputes prefix_counts_ from value_counts_.
  void BuildPrefixCounts();

  std::vector<RangeItem> items_;        // sorted by (attr, lo, hi)
  std::vector<uint64_t> item_counts_;   // parallel to items_
  size_t num_records_ = 0;
  size_t items_pruned_by_interest_ = 0;

  // Per attribute: per-value counts and inclusive prefix sums.
  std::vector<std::vector<uint64_t>> value_counts_;
  std::vector<std::vector<uint64_t>> prefix_counts_;
};

}  // namespace qarm

#endif  // QARM_CORE_FREQUENT_ITEMS_H_
