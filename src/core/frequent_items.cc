#include "core/frequent_items.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"

namespace qarm {

ItemCatalog ItemCatalog::Build(const MappedTable& table,
                               const MinerOptions& options) {
  const MappedTableSource source(
      table, PickBlockRows(table.num_rows(),
                           ResolveNumThreads(options.num_threads),
                           options.stream_block_rows));
  Result<ItemCatalog> catalog = Build(source, options);
  QARM_CHECK(catalog.ok());  // in-memory block reads cannot fail
  return std::move(catalog).value();
}

Result<std::vector<std::vector<uint64_t>>> ItemCatalog::ScanValueCounts(
    const RecordSource& source, size_t num_threads, ScanIoStats* io) {
  const size_t num_attrs = source.num_attributes();
  const size_t num_blocks = source.num_blocks();
  const ScanIoStats io_before = source.io_stats();

  // Per-attribute value counts in one block-streamed scan, sharded across
  // workers when num_threads allows (each worker a contiguous block range).
  // Each worker accumulates into its own grids which are then summed in
  // shard order; integer addition is order-independent, so the counts are
  // identical to the serial scan.
  std::vector<std::vector<uint64_t>> value_counts(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    value_counts[a].assign(source.attribute(a).domain_size(), 0);
  }
  auto scan_blocks = [&](size_t block_begin, size_t block_end,
                         std::vector<std::vector<uint64_t>>& counts)
      -> Status {
    BlockView view;
    for (size_t b = block_begin; b < block_end; ++b) {
      QARM_RETURN_NOT_OK(source.ReadBlock(b, &view));
      const size_t rows = view.num_rows();
      for (size_t a = 0; a < num_attrs; ++a) {
        std::vector<uint64_t>& column_counts = counts[a];
        const int32_t* column = view.column(a);
        const size_t stride = view.stride();
        for (size_t r = 0; r < rows; ++r) {
          const int32_t v = column[r * stride];
          if (v == kMissingValue) continue;
          ++column_counts[static_cast<size_t>(v)];
        }
      }
    }
    return Status::OK();
  };
  const size_t threads =
      std::max<size_t>(1,
                       std::min(ResolveNumThreads(num_threads), num_blocks));
  if (threads == 1) {
    QARM_RETURN_NOT_OK(scan_blocks(0, num_blocks, value_counts));
  } else {
    const std::vector<IndexRange> shards = SplitRange(num_blocks, threads);
    std::vector<std::vector<std::vector<uint64_t>>> partials(shards.size());
    std::vector<Status> statuses(shards.size());
    ThreadPool pool(threads);
    pool.ParallelFor(shards.size(), [&](size_t s) {
      std::vector<std::vector<uint64_t>>& local = partials[s];
      local.resize(num_attrs);
      for (size_t a = 0; a < num_attrs; ++a) {
        local[a].assign(source.attribute(a).domain_size(), 0);
      }
      statuses[s] = scan_blocks(shards[s].begin, shards[s].end, local);
    });
    for (const Status& status : statuses) {
      QARM_RETURN_NOT_OK(status);
    }
    for (const auto& local : partials) {
      for (size_t a = 0; a < num_attrs; ++a) {
        for (size_t v = 0; v < local[a].size(); ++v) {
          value_counts[a][v] += local[a][v];
        }
      }
    }
  }
  if (io != nullptr) *io = source.io_stats() - io_before;
  return value_counts;
}

Result<ItemCatalog> ItemCatalog::Build(const RecordSource& source,
                                       const MinerOptions& options,
                                       ScanIoStats* io) {
  QARM_ASSIGN_OR_RETURN(std::vector<std::vector<uint64_t>> value_counts,
                        ScanValueCounts(source, options.num_threads, io));
  return BuildFromValueCounts(source, options, std::move(value_counts));
}

Result<ItemCatalog> ItemCatalog::BuildFromValueCounts(
    const RecordSource& source, const MinerOptions& options,
    std::vector<std::vector<uint64_t>> value_counts) {
  const size_t num_attrs = source.num_attributes();
  const size_t num_rows = source.num_rows();
  if (value_counts.size() != num_attrs) {
    return Status::InvalidArgument(
        "value counts do not match the source's attribute count");
  }
  for (size_t a = 0; a < num_attrs; ++a) {
    if (value_counts[a].size() != source.attribute(a).domain_size()) {
      return Status::InvalidArgument(
          "value counts do not match an attribute's domain size");
    }
  }
  ItemCatalog catalog;
  catalog.num_records_ = num_rows;
  catalog.value_counts_ = std::move(value_counts);
  catalog.prefix_counts_.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    const auto& counts = catalog.value_counts_[a];
    auto& prefix = catalog.prefix_counts_[a];
    prefix.resize(counts.size());
    uint64_t sum = 0;
    for (size_t v = 0; v < counts.size(); ++v) {
      sum += counts[v];
      prefix[v] = sum;
    }
  }

  uint64_t min_count = static_cast<uint64_t>(
      std::ceil(options.minsup * static_cast<double>(num_rows) - 1e-9));
  if (min_count == 0) min_count = 1;
  const double max_support =
      options.max_support <= 0.0 ? 1.0 : options.max_support;
  const uint64_t max_count = static_cast<uint64_t>(
      std::floor(max_support * static_cast<double>(num_rows) + 1e-9));

  // Lemma 5 cutoff: quantitative items with support > 1/R are pruned.
  const bool prune =
      options.interest_level > 1.0 && options.interest_item_prune;
  const double prune_cutoff =
      prune ? static_cast<double>(num_rows) / options.interest_level : 0.0;

  for (size_t a = 0; a < num_attrs; ++a) {
    const MappedAttribute& attr = source.attribute(a);
    const auto& counts = catalog.value_counts_[a];
    const int32_t domain = static_cast<int32_t>(counts.size());

    if (attr.kind == AttributeKind::kCategorical) {
      // Leaf values, plus interior taxonomy nodes (Section 1.1: a taxonomy
      // implicitly combines categorical values). Multi-leaf nodes observe
      // the max-support cap like quantitative ranges do.
      std::vector<RangeItem> candidates;
      for (int32_t v = 0; v < domain; ++v) {
        candidates.push_back(RangeItem{static_cast<int32_t>(a), v, v});
      }
      for (const Taxonomy::NodeRange& node : attr.taxonomy_ranges) {
        if (node.lo < node.hi) {
          candidates.push_back(
              RangeItem{static_cast<int32_t>(a), node.lo, node.hi});
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      for (const RangeItem& item : candidates) {
        uint64_t sum = 0;
        for (int32_t v = item.lo; v <= item.hi; ++v) {
          sum += counts[static_cast<size_t>(v)];
        }
        if (sum < min_count) continue;
        if (item.lo < item.hi && sum > max_count) continue;
        catalog.items_.push_back(item);
        catalog.item_counts_.push_back(sum);
      }
      continue;
    }

    // Quantitative: every range [l..u] of adjacent values whose combined
    // support reaches minsup without exceeding max-support; a single value
    // above max-support is still considered (Section 1.2).
    for (int32_t l = 0; l < domain; ++l) {
      uint64_t cum = 0;
      for (int32_t u = l; u < domain; ++u) {
        cum += counts[static_cast<size_t>(u)];
        if (u > l && cum > max_count) break;
        if (cum >= min_count) {
          bool pruned =
              prune && static_cast<double>(cum) > prune_cutoff;
          if (!pruned) {
            catalog.items_.push_back(
                RangeItem{static_cast<int32_t>(a), l, u});
            catalog.item_counts_.push_back(cum);
          } else {
            ++catalog.items_pruned_by_interest_;
          }
        }
        if (cum > max_count) break;  // single value exceeded the cap
      }
    }
  }

  // Items were generated in (attr, lo, hi) order already; verify in debug.
  for (size_t i = 1; i < catalog.items_.size(); ++i) {
    QARM_DCHECK(catalog.items_[i - 1] < catalog.items_[i]);
  }
  return catalog;
}

CheckpointCatalog ItemCatalog::Snapshot() const {
  CheckpointCatalog saved;
  saved.num_records = num_records_;
  saved.items_pruned_by_interest = items_pruned_by_interest_;
  saved.item_words.reserve(items_.size() * 3);
  for (const RangeItem& item : items_) {
    saved.item_words.push_back(item.attr);
    saved.item_words.push_back(item.lo);
    saved.item_words.push_back(item.hi);
  }
  saved.item_counts = item_counts_;
  saved.value_counts = value_counts_;
  return saved;
}

Result<ItemCatalog> ItemCatalog::Restore(const RecordSource& source,
                                         const CheckpointCatalog& saved) {
  const size_t num_attrs = source.num_attributes();
  if (saved.value_counts.size() != num_attrs) {
    return Status::InvalidArgument(
        "checkpoint catalog does not match the source's attribute count");
  }
  for (size_t a = 0; a < num_attrs; ++a) {
    if (saved.value_counts[a].size() != source.attribute(a).domain_size()) {
      return Status::InvalidArgument(
          "checkpoint catalog does not match an attribute's domain size");
    }
  }
  if (saved.item_words.size() != saved.item_counts.size() * 3) {
    return Status::InvalidArgument(
        "checkpoint catalog item words/counts out of sync");
  }
  if (saved.num_records != source.num_rows()) {
    return Status::InvalidArgument(
        "checkpoint catalog does not match the source's row count");
  }

  ItemCatalog catalog;
  catalog.num_records_ = static_cast<size_t>(saved.num_records);
  catalog.items_pruned_by_interest_ =
      static_cast<size_t>(saved.items_pruned_by_interest);
  catalog.value_counts_ = saved.value_counts;

  catalog.items_.reserve(saved.item_counts.size());
  for (size_t i = 0; i < saved.item_counts.size(); ++i) {
    const int32_t attr = saved.item_words[i * 3];
    const int32_t lo = saved.item_words[i * 3 + 1];
    const int32_t hi = saved.item_words[i * 3 + 2];
    if (attr < 0 || static_cast<size_t>(attr) >= num_attrs || lo < 0 ||
        lo > hi ||
        static_cast<size_t>(hi) >=
            source.attribute(static_cast<size_t>(attr)).domain_size()) {
      return Status::InvalidArgument(
          "checkpoint catalog item out of the source's domain");
    }
    catalog.items_.push_back(RangeItem{attr, lo, hi});
    if (i > 0 && !(catalog.items_[i - 1] < catalog.items_[i])) {
      return Status::InvalidArgument("checkpoint catalog items unsorted");
    }
  }
  catalog.item_counts_ = saved.item_counts;

  catalog.prefix_counts_.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    const auto& counts = catalog.value_counts_[a];
    auto& prefix = catalog.prefix_counts_[a];
    prefix.resize(counts.size());
    uint64_t sum = 0;
    for (size_t v = 0; v < counts.size(); ++v) {
      sum += counts[v];
      prefix[v] = sum;
    }
  }
  return catalog;
}

RangeItemset ItemCatalog::Decode(const int32_t* ids, size_t k) const {
  RangeItemset itemset(k);
  for (size_t i = 0; i < k; ++i) itemset[i] = item(ids[i]);
  return itemset;
}

int32_t ItemCatalog::FindItem(const RangeItem& wanted) const {
  // Items are sorted by (attr, lo, hi), RangeItem's own order.
  const auto it = std::lower_bound(items_.begin(), items_.end(), wanted);
  if (it == items_.end() || !(*it == wanted)) return -1;
  return static_cast<int32_t>(it - items_.begin());
}

uint64_t ItemCatalog::RangeCount(int32_t attr, int32_t lo, int32_t hi) const {
  const auto& prefix = prefix_counts_[static_cast<size_t>(attr)];
  if (prefix.empty()) return 0;
  int32_t max_value = static_cast<int32_t>(prefix.size()) - 1;
  if (lo < 0) lo = 0;
  if (hi > max_value) hi = max_value;
  if (lo > hi) return 0;
  uint64_t upper = prefix[static_cast<size_t>(hi)];
  uint64_t lower = lo == 0 ? 0 : prefix[static_cast<size_t>(lo) - 1];
  return upper - lower;
}

double ItemCatalog::RangeSupport(int32_t attr, int32_t lo, int32_t hi) const {
  if (num_records_ == 0) return 0.0;
  return static_cast<double>(RangeCount(attr, lo, hi)) /
         static_cast<double>(num_records_);
}

}  // namespace qarm
