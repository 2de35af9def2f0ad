#include "core/support_counting.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "common/cpu_dispatch.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/packed_key_table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/count_kernels.h"
#include "index/ndim_array.h"
#include "index/rstar_tree.h"

namespace qarm {
namespace {

struct SuperCandidate {
  std::vector<int32_t> cat_item_ids;  // sorted item ids (categorical part)
  std::vector<int32_t> quant_attrs;   // sorted attribute indices
  // Member candidates as runs [first, second) of consecutive candidate
  // indices, in candidate order: pass 2's implicit pairs arrive in long
  // same-group runs, so a run costs one pair instead of one id per member.
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  size_t num_members = 0;
  std::unique_ptr<NDimArray> array;
  std::unique_ptr<RStarTree> tree;
  // Parallel to members; used by both the tree mode and the degraded
  // direct-scan mode below.
  std::vector<uint32_t> tree_counts;
  uint64_t direct_count = 0;          // purely categorical
  // Degraded mode (counter budget exhausted, or too many dimensions for an
  // R*-tree and no room for a grid): no counting structure at all — each
  // record is tested against every member's rectangle, stored flat here as
  // lo/hi pairs per dimension.
  bool degraded_scan = false;
  std::vector<int32_t> member_rects;
  // Parallel scan: grid shared across workers, updated atomically (its
  // per-thread replicas would not fit the replication budget).
  bool atomic_shared = false;
  // Grid strides as int32, for the vectorized flat-index computation.
  std::vector<int32_t> grid_strides;
  // The shared row masks (see SharedMask) whose AND selects the rows this
  // group counts: one per categorical item, one per dimension.
  std::vector<uint32_t> mask_slots;
};

// One row mask the scan builds per block and shares across every group
// that needs it: rows where `attr` equals `value` (a categorical item), or,
// with `equal` false, rows where `attr` differs from `value` (a dimension's
// not-missing test).
struct SharedMask {
  size_t attr;
  int32_t value;
  bool equal;
};

// Thread-local accumulators of one scan worker. Worker 0 writes directly
// into the groups' own structures; workers 1..T-1 fill these and are
// reduced in afterwards, so the final counts are identical to a serial
// scan (integer addition is order-independent).
struct WorkerCounters {
  std::vector<std::unique_ptr<NDimArray>> arrays;   // per group, or null
  std::vector<std::vector<uint32_t>> tree_counts;   // per group
  std::vector<uint64_t> direct;                     // per group
};

// Calls fn(m, c) for every member m of `sc` with candidate index c, in
// member order.
template <typename Fn>
void ForEachMember(const SuperCandidate& sc, Fn fn) {
  size_t m = 0;
  for (const auto& [first, end] : sc.runs) {
    for (uint32_t c = first; c < end; ++c) fn(m++, c);
  }
}

}  // namespace

std::vector<uint32_t> CountSupports(const MappedTable& table,
                                    const ItemCatalog& catalog,
                                    const ItemsetSet& candidates,
                                    const MinerOptions& options,
                                    CountingStats* stats) {
  const MappedTableSource source(
      table, PickBlockRows(table.num_rows(),
                           ResolveNumThreads(options.num_threads),
                           options.stream_block_rows));
  Result<std::vector<uint32_t>> counts =
      CountSupports(source, catalog, candidates, options, stats);
  QARM_CHECK(counts.ok());  // in-memory block reads cannot fail
  return std::move(counts).value();
}

Result<std::vector<uint32_t>> CountSupports(const RecordSource& source,
                                            const ItemCatalog& catalog,
                                            const ItemsetSet& candidates,
                                            const MinerOptions& options,
                                            CountingStats* stats) {
  return CountSupports(source, catalog, ItemsetStreamView(candidates),
                       options, stats);
}

Result<std::vector<uint32_t>> CountSupports(const RecordSource& source,
                                            const ItemCatalog& catalog,
                                            const CandidateStream& candidates,
                                            const MinerOptions& options,
                                            CountingStats* stats) {
  const size_t num_candidates = candidates.size();
  const size_t k = candidates.k();
  std::vector<uint32_t> counts(num_candidates, 0);
  if (num_candidates == 0) return counts;

  CountingStats local_stats;
  Timer phase_timer;
  const ScanIoStats io_before = source.io_stats();

  // "Ranged" attributes (quantitative, or categorical under a taxonomy)
  // become dimensions of the super-candidate rectangles; plain categorical
  // items are matched through the hash tree.
  auto is_ranged = [&source](int32_t attr) {
    return source.attribute(static_cast<size_t>(attr)).ranged();
  };

  // --- Group candidates into super-candidates. ---
  // Key: [quantitative attrs..., -1, categorical item ids...] — always k+1
  // words, since each item contributes either its attribute or its id.
  // Categorical items pin both attribute and value, exactly the paper's
  // grouping. Group ids are the keys' insertion order in a flat table. The
  // chunked sweep visits candidates in their exact serial generation
  // order, so group creation order and member order — and therefore every
  // downstream count — are identical whether the stream is materialized or
  // implicit.
  //
  // Per item, its part of a key as one code word: ~attr for a ranged item
  // (negative), the item id for a categorical one. Candidates with equal
  // codes at every position have equal keys, so a candidate coded like its
  // predecessor only extends the open run of members, skipping the key and
  // the table; pass 2's implicit pairs arrive in long such runs.
  std::vector<int32_t> item_code(catalog.num_items());
  for (size_t id = 0; id < item_code.size(); ++id) {
    const int32_t attr = catalog.item(static_cast<int32_t>(id)).attr;
    item_code[id] = is_ranged(attr) ? ~attr : static_cast<int32_t>(id);
  }
  PackedKeyTable group_keys(k + 1);
  std::vector<SuperCandidate> groups;
  std::vector<int32_t> key(k + 1);
  std::vector<int32_t> previous_codes(k);
  // The open run: candidates [run_begin, run_end) of group run_group, all
  // with codes previous_codes. It is appended to its group when a
  // candidate with other codes closes it.
  uint32_t run_group = PackedKeyTable::kNotFound;
  uint32_t run_begin = 0;
  uint32_t run_end = 0;
  auto close_run = [&]() {
    if (run_group == PackedKeyTable::kNotFound) return;
    SuperCandidate& sc = groups[run_group];
    sc.runs.emplace_back(run_begin, run_end);
    sc.num_members += run_end - run_begin;
  };
  candidates.ForEachChunk([&](size_t first, const ItemsetSet& chunk) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      const int32_t* ids = chunk.itemset(i);
      bool same = run_group != PackedKeyTable::kNotFound;
      for (size_t p = 0; p < k; ++p) {
        same &= item_code[static_cast<size_t>(ids[p])] == previous_codes[p];
      }
      if (same) {
        ++run_end;  // same group as the previous candidate
        continue;
      }
      size_t quant = 0;
      for (size_t p = 0; p < k; ++p) {
        previous_codes[p] = item_code[static_cast<size_t>(ids[p])];
        if (previous_codes[p] < 0) key[quant++] = ~previous_codes[p];
      }
      key[quant] = -1;
      size_t cat = quant + 1;
      for (size_t p = 0; p < k; ++p) {
        if (previous_codes[p] >= 0) key[cat++] = previous_codes[p];
      }
      close_run();
      const auto [g, inserted] = group_keys.Insert(key.data());
      if (inserted) {
        SuperCandidate sc;
        sc.quant_attrs.assign(key.begin(), key.begin() + quant);
        sc.cat_item_ids.assign(key.begin() + quant + 1, key.end());
        groups.push_back(std::move(sc));
      }
      run_group = g;
      run_begin = static_cast<uint32_t>(first + i);
      run_end = run_begin + 1;
    }
  });
  close_run();
  local_stats.num_super_candidates = groups.size();
  local_stats.group_seconds = phase_timer.ElapsedSeconds();
  phase_timer.Reset();

  // The scan parallelism: never more shards than blocks (in-memory sources
  // pick their block size so that small tables still feed every worker).
  const size_t threads_used =
      std::max<size_t>(1, std::min(ResolveNumThreads(options.num_threads),
                                   source.num_blocks()));
  local_stats.threads_used = threads_used;

  // --- Build a counting structure per super-candidate. ---
  // Dense grids are budgeted cumulatively: `array_bytes_total` tracks every
  // grid of this pass against counter_memory_budget_bytes, so total counter
  // memory stays bounded no matter how many super-candidates a pass has.
  uint64_t array_bytes_total = 0;
  uint64_t tree_bytes_total = 0;
  uint64_t replicated_bytes_total = 0;
  for (SuperCandidate& sc : groups) {
    if (sc.quant_attrs.empty()) {
      QARM_CHECK_EQ(sc.num_members, 1u);  // identical itemsets are unique
      ++local_stats.num_direct;
      continue;
    }
    std::vector<int32_t> dim_sizes;
    dim_sizes.reserve(sc.quant_attrs.size());
    for (int32_t attr : sc.quant_attrs) {
      dim_sizes.push_back(static_cast<int32_t>(
          source.attribute(static_cast<size_t>(attr)).domain_size()));
    }
    const uint64_t array_bytes = NDimArray::EstimateBytes(dim_sizes);
    const uint64_t tree_bytes =
        RStarTree::EstimateBytes(sc.num_members, dim_sizes.size());
    const bool fits_budget =
        array_bytes <= options.counter_memory_budget_bytes &&
        array_bytes_total <=
            options.counter_memory_budget_bytes - array_bytes;
    // The vectorized flat-index scatter computes int32 cell indices, so a
    // grid stays under 2^31 cells (8 GiB, far past any counter budget).
    const bool grid_indexable =
        array_bytes / sizeof(uint32_t) <=
        static_cast<uint64_t>(std::numeric_limits<int32_t>::max());
    // Only the R*-tree is limited in dimensions: a wider group gets the
    // grid if it fits, or the degraded scan otherwise.
    const bool tree_allowed = sc.quant_attrs.size() <= kRStarMaxDims;
    const bool use_array =
        grid_indexable &&
        (fits_budget || (tree_allowed && array_bytes <= tree_bytes));
    if (use_array) {
      sc.array = std::make_unique<NDimArray>(dim_sizes);
      for (uint64_t stride : sc.array->strides()) {
        sc.grid_strides.push_back(static_cast<int32_t>(stride));
      }
      array_bytes_total += array_bytes;
      local_stats.counter_bytes += array_bytes;
      ++local_stats.num_array_counters;
      if (threads_used > 1) {
        // Replicate the grid per extra worker if the replicas fit the
        // (cumulative) replication budget; otherwise share it and count
        // with atomic increments.
        const uint64_t extra_workers = threads_used - 1;
        const bool replicas_fit =
            array_bytes <=
                options.parallel_replication_budget_bytes / extra_workers &&
            replicated_bytes_total <=
                options.parallel_replication_budget_bytes -
                    array_bytes * extra_workers;
        if (replicas_fit) {
          replicated_bytes_total += array_bytes * extra_workers;
        } else {
          sc.atomic_shared = true;
          ++local_stats.num_atomic_shared;
        }
      }
    } else {
      // Trees are budgeted cumulatively too, as a high-water mark: a tree
      // is admitted while the running tree total is still within budget
      // (so a pass always gets at least one), and once the total crosses
      // it the remaining super-candidates degrade to a structure-free
      // linear scan of their member rectangles — much slower per record
      // but near-zero memory, so the pass always completes.
      const bool tree_fits =
          tree_allowed &&
          tree_bytes_total <= options.counter_memory_budget_bytes;
      sc.tree_counts.assign(sc.num_members, 0);
      if (tree_fits) {
        sc.tree = std::make_unique<RStarTree>(sc.quant_attrs.size());
      } else {
        sc.degraded_scan = true;
        sc.member_rects.reserve(sc.num_members * dim_sizes.size() * 2);
        ++local_stats.num_degraded;
      }
      std::vector<int32_t> ids(k);
      ForEachMember(sc, [&](size_t m, uint32_t c) {
        candidates.Get(c, ids.data());
        RStarRect rect;
        size_t d = 0;
        for (size_t i = 0; i < k; ++i) {
          const RangeItem& item = catalog.item(ids[i]);
          if (!is_ranged(item.attr)) continue;
          if (sc.degraded_scan) {
            sc.member_rects.push_back(item.lo);
            sc.member_rects.push_back(item.hi);
          } else {
            rect.lo[d] = static_cast<double>(item.lo);
            rect.hi[d] = static_cast<double>(item.hi);
          }
          ++d;
        }
        if (!sc.degraded_scan) {
          sc.tree->Insert(rect, static_cast<int32_t>(m));
        }
      });
      if (tree_fits) {
        tree_bytes_total += tree_bytes;
        local_stats.counter_bytes += tree_bytes;
        ++local_stats.num_tree_counters;
      }
    }
  }
  local_stats.replicated_bytes = replicated_bytes_total;
  if (local_stats.num_degraded > 0) {
    QARM_LOG(Warning) << "counter memory budget ("
                      << options.counter_memory_budget_bytes
                      << " bytes) exhausted: " << local_stats.num_degraded
                      << " of " << groups.size()
                      << " super-candidates degrade to direct-scan "
                         "counting this pass";
  }

  // --- Shared row masks. ---
  // Every group is counted per block from one bitmask over the block's
  // rows. Groups share the masks that mask is built from: the scan computes
  // one equality mask per distinct categorical item of the pass and one
  // not-missing mask per distinct dimension, and each group ANDs together
  // the masks of its items and dimensions. With G groups, I distinct items
  // and n rows, a block then costs about I * n compares plus G * n / 64
  // word ANDs, where per-group sweeps would cost G * n compares.
  const CountKernels& kern = CountKernels::Active();
  local_stats.isa = kern.isa;
  const size_t num_attrs = source.num_attributes();
  std::vector<SharedMask> masks;
  std::vector<int32_t> item_slot(catalog.num_items(), -1);
  std::vector<int32_t> dim_slot(num_attrs, -1);
  auto slot_of = [&masks](int32_t* slot, SharedMask mask) {
    if (*slot < 0) {
      *slot = static_cast<int32_t>(masks.size());
      masks.push_back(mask);
    }
    return static_cast<uint32_t>(*slot);
  };
  size_t max_dims = 0;
  for (SuperCandidate& sc : groups) {
    for (int32_t id : sc.cat_item_ids) {
      // A categorical item pins attr to one value; missing (-1) never
      // equals a mapped value (>= 0), so the compare also filters nulls.
      const RangeItem& item = catalog.item(id);
      sc.mask_slots.push_back(
          slot_of(&item_slot[static_cast<size_t>(id)],
                  {static_cast<size_t>(item.attr), item.lo, true}));
    }
    for (int32_t attr : sc.quant_attrs) {
      // A record lacking any dimension supports no member.
      sc.mask_slots.push_back(
          slot_of(&dim_slot[static_cast<size_t>(attr)],
                  {static_cast<size_t>(attr), kMissingValue, false}));
    }
    max_dims = std::max(max_dims, sc.quant_attrs.size());
  }
  // The columns the scan reads: every dimension has a not-missing mask, so
  // the masked attributes cover the dimensions too.
  std::vector<size_t> scan_attrs;
  for (const SharedMask& mask : masks) scan_attrs.push_back(mask.attr);
  std::sort(scan_attrs.begin(), scan_attrs.end());
  scan_attrs.erase(std::unique(scan_attrs.begin(), scan_attrs.end()),
                   scan_attrs.end());
  local_stats.build_seconds = phase_timer.ElapsedSeconds();
  phase_timer.Reset();

  const size_t max_block_rows = source.max_block_rows();
  const size_t mask_stride = MaskWords(max_block_rows);

  // --- The pass over the database, sharded across workers. ---
  // Each worker streams a contiguous *block* range through its own
  // BlockView, so memory stays bounded by the blocks in flight no matter
  // how large the source is. `local == nullptr` means the worker owns the
  // groups' primary structures (worker 0, and the whole serial path);
  // otherwise increments go to the worker's own replicas. Grids flagged
  // atomic_shared are written by every worker via relaxed atomic adds.
  //
  // Per block, the worker builds the shared masks, then finishes each group
  // from its ANDed mask: popcount, flat-index scatter, tree probe of the
  // surviving rows, or per-member range masks.
  auto scan_blocks = [&](size_t block_begin, size_t block_end,
                         WorkerCounters* local) -> Status {
    std::vector<uint64_t> shared_masks(masks.size() * mask_stride);
    std::vector<uint64_t> group_mask(mask_stride);
    std::vector<uint64_t> member_mask(mask_stride);
    std::vector<int32_t> flat_idx(max_block_rows);
    // Row-major sources materialize the scanned columns into this slab.
    std::vector<int32_t> columns;
    std::vector<const int32_t*> col_ptr(num_attrs, nullptr);
    std::vector<const int32_t*> group_cols(max_dims);
    double dpoint[kRStarMaxDims];
    BlockView view;

    // One group over one block of n rows.
    auto scan_group = [&](size_t g, size_t n) {
      SuperCandidate& sc = groups[g];
      const size_t dims = sc.quant_attrs.size();
      const size_t words = MaskWords(n);
      auto shared = [&](size_t s) {
        return shared_masks.data() + sc.mask_slots[s] * mask_stride;
      };
      const uint64_t* mask = shared(0);
      if (sc.mask_slots.size() > 1) {
        uint64_t* dst = group_mask.data();
        const uint64_t* second = shared(1);
        for (size_t w = 0; w < words; ++w) dst[w] = mask[w] & second[w];
        for (size_t s = 2; s < sc.mask_slots.size(); ++s) {
          const uint64_t* next = shared(s);
          for (size_t w = 0; w < words; ++w) dst[w] &= next[w];
        }
        mask = dst;
      }
      const uint64_t matches = kern.popcount(mask, n);
      if (dims == 0) {
        if (local != nullptr) {
          local->direct[g] += matches;
        } else {
          sc.direct_count += matches;
        }
        return;
      }
      if (matches == 0) return;
      for (size_t d = 0; d < dims; ++d) {
        group_cols[d] = col_ptr[static_cast<size_t>(sc.quant_attrs[d])];
      }
      if (sc.array != nullptr) {
        kern.flat_index(flat_idx.data(), group_cols.data(),
                        sc.grid_strides.data(), dims, n);
        NDimArray* grid = sc.atomic_shared || local == nullptr
                              ? sc.array.get()
                              : local->arrays[g].get();
        const int32_t* idx = flat_idx.data();
        for (size_t w = 0; w < words; ++w) {
          uint64_t bits = mask[w];
          while (bits != 0) {
            const size_t r =
                w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            const size_t cell = static_cast<size_t>(
                static_cast<uint32_t>(idx[r]));
            if (sc.atomic_shared) {
              grid->AtomicIncrementFlat(cell);
            } else {
              grid->IncrementFlat(cell);
            }
          }
        }
        return;
      }
      std::vector<uint32_t>& member_counts =
          local != nullptr ? local->tree_counts[g] : sc.tree_counts;
      if (sc.tree != nullptr) {
        for (size_t w = 0; w < words; ++w) {
          uint64_t bits = mask[w];
          while (bits != 0) {
            const size_t r =
                w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            for (size_t d = 0; d < dims; ++d) {
              dpoint[d] = static_cast<double>(group_cols[d][r]);
            }
            sc.tree->ForEachContaining(dpoint, [&member_counts](int32_t m) {
              ++member_counts[static_cast<size_t>(m)];
            });
          }
        }
        return;
      }
      // Degraded mode: per member, refine a copy of the group mask with one
      // range compare per dimension and popcount it.
      const int32_t* rects = sc.member_rects.data();
      uint64_t* tmp = member_mask.data();
      for (size_t m = 0; m < sc.num_members; ++m) {
        const int32_t* rect = rects + m * dims * 2;
        std::memcpy(tmp, mask, words * sizeof(uint64_t));
        for (size_t d = 0; d < dims; ++d) {
          kern.mask_range(tmp, group_cols[d], n, rect[2 * d],
                          rect[2 * d + 1]);
        }
        member_counts[m] += static_cast<uint32_t>(kern.popcount(tmp, n));
      }
    };

    for (size_t b = block_begin; b < block_end; ++b) {
      QARM_RETURN_NOT_OK(source.ReadBlock(b, &view));
      const size_t block_rows = view.num_rows();

      // Resolve contiguous column slices: columnar blocks (QBT) are read in
      // place; row-major blocks materialize the scanned attributes into the
      // worker's slab once per block.
      if (view.columnar()) {
        for (size_t a : scan_attrs) col_ptr[a] = view.column(a);
      } else {
        columns.resize(scan_attrs.size() * max_block_rows);
        const size_t stride = view.stride();
        for (size_t i = 0; i < scan_attrs.size(); ++i) {
          const size_t a = scan_attrs[i];
          const int32_t* src = view.column(a);
          int32_t* dst = columns.data() + i * max_block_rows;
          for (size_t r = 0; r < block_rows; ++r) {
            dst[r] = src[r * stride];
          }
          col_ptr[a] = dst;
        }
      }
      for (size_t s = 0; s < masks.size(); ++s) {
        uint64_t* mask = shared_masks.data() + s * mask_stride;
        const int32_t* col = col_ptr[masks[s].attr];
        kern.fill_ones(mask, block_rows);
        if (masks[s].equal) {
          kern.mask_eq(mask, col, block_rows, masks[s].value);
        } else {
          kern.mask_neq(mask, col, block_rows, masks[s].value);
        }
      }
      for (size_t g = 0; g < groups.size(); ++g) scan_group(g, block_rows);
    }
    return Status::OK();
  };

  // One pool serves both the scan and the reduce below.
  std::unique_ptr<ThreadPool> pool;
  if (threads_used > 1) pool = std::make_unique<ThreadPool>(threads_used);

  std::vector<WorkerCounters> workers;
  if (threads_used == 1) {
    QARM_RETURN_NOT_OK(scan_blocks(0, source.num_blocks(), /*local=*/nullptr));
  } else {
    workers.resize(threads_used);
    const std::vector<IndexRange> shards =
        SplitRange(source.num_blocks(), threads_used);
    std::vector<Status> statuses(shards.size());
    pool->ParallelFor(shards.size(), [&](size_t w) {
      WorkerCounters& wc = workers[w];
      if (w > 0) {
        // Allocate the replicas on the worker itself (first-touch locality).
        wc.direct.assign(groups.size(), 0);
        wc.tree_counts.resize(groups.size());
        wc.arrays.resize(groups.size());
        for (size_t g = 0; g < groups.size(); ++g) {
          const SuperCandidate& sc = groups[g];
          if (sc.tree != nullptr || sc.degraded_scan) {
            wc.tree_counts[g].assign(sc.num_members, 0);
          } else if (sc.array != nullptr && !sc.atomic_shared) {
            wc.arrays[g] = std::make_unique<NDimArray>(sc.array->dim_sizes());
          }
        }
      }
      statuses[w] = scan_blocks(shards[w].begin, shards[w].end,
                                w == 0 ? nullptr : &wc);
    });
    for (const Status& status : statuses) {
      QARM_RETURN_NOT_OK(status);
    }
  }
  local_stats.scan_seconds = phase_timer.ElapsedSeconds();
  phase_timer.Reset();

  // --- Reduce worker shards and collect per-candidate counts. ---
  // One task per super-candidate: merge its worker shards (a pairwise tree
  // in fixed order — merging shards while both are cache-warm), build the
  // grid's prefix sums, then decode the members' rectangles in chunks and
  // count them batched (NDimArray::CountRects, vectorized for 1-d/2-d
  // grids). Every task writes a disjoint slice of `counts` and only its own
  // group's shards, so the parallel schedule cannot affect the result; the
  // merges themselves are exact integer sums, identical in any order.
  const size_t num_workers = workers.size();
  auto reduce_group = [&](size_t g) {
    SuperCandidate& sc = groups[g];

    if (num_workers > 1) {
      if (sc.quant_attrs.empty()) {
        for (size_t w = 1; w < num_workers; ++w) {
          sc.direct_count += workers[w].direct[g];
        }
      } else if (sc.tree != nullptr || sc.degraded_scan) {
        // Shard 0 is the group's own counts; shards 1..T-1 the workers'.
        auto shard = [&](size_t s) -> uint32_t* {
          return s == 0 ? sc.tree_counts.data()
                        : workers[s].tree_counts[g].data();
        };
        const size_t len = sc.tree_counts.size();
        for (size_t step = 1; step < num_workers; step *= 2) {
          for (size_t i = 0; i + step < num_workers; i += 2 * step) {
            kern.add_u32(shard(i), shard(i + step), len);
          }
        }
      } else if (sc.array != nullptr && !sc.atomic_shared) {
        auto shard = [&](size_t s) -> NDimArray* {
          return s == 0 ? sc.array.get() : workers[s].arrays[g].get();
        };
        for (size_t step = 1; step < num_workers; step *= 2) {
          for (size_t i = 0; i + step < num_workers; i += 2 * step) {
            shard(i)->AddFrom(*shard(i + step));
          }
        }
        for (size_t w = 1; w < num_workers; ++w) {
          workers[w].arrays[g].reset();
        }
      }
    }

    if (sc.quant_attrs.empty()) {
      // Counts are bounded by the record count, but that invariant lives far
      // from here (in the scan workers); guard the narrowing explicitly.
      QARM_CHECK_LE(sc.direct_count, std::numeric_limits<uint32_t>::max());
      counts[sc.runs[0].first] = static_cast<uint32_t>(sc.direct_count);
      return;
    }
    if (sc.tree != nullptr || sc.degraded_scan) {
      ForEachMember(sc, [&](size_t m, uint32_t c) {
        counts[c] = sc.tree_counts[m];
      });
      return;
    }
    sc.array->BuildPrefixSums();
    const size_t dims = sc.quant_attrs.size();
    // Chunked batched collect: decode member rectangles into dim-major SoA
    // bounds, then count the whole chunk in one call.
    constexpr size_t kChunk = 2048;
    const size_t chunk = std::min(kChunk, sc.num_members);
    std::vector<int32_t> los(dims * chunk);
    std::vector<int32_t> his(dims * chunk);
    std::vector<uint32_t> out(chunk);
    std::vector<uint32_t> chunk_members(chunk);
    std::vector<int32_t> ids(k);
    size_t begin = 0;
    size_t num = std::min(chunk, sc.num_members);
    size_t filled = 0;
    ForEachMember(sc, [&](size_t, uint32_t c) {
      // Bounds are dim-major over the chunk's `num` members.
      candidates.Get(c, ids.data());
      size_t d = 0;
      for (size_t i = 0; i < k; ++i) {
        const RangeItem& item = catalog.item(ids[i]);
        if (!is_ranged(item.attr)) continue;
        los[d * num + filled] = item.lo;
        his[d * num + filled] = item.hi;
        ++d;
      }
      chunk_members[filled++] = c;
      if (filled < num) return;
      sc.array->CountRects(los.data(), his.data(), num, out.data());
      for (size_t m = 0; m < num; ++m) counts[chunk_members[m]] = out[m];
      begin += num;
      num = std::min(chunk, sc.num_members - begin);
      filled = 0;
    });
    sc.array.reset();  // release the grid before the next group collects
  };

  if (pool != nullptr) {
    pool->ParallelFor(groups.size(), reduce_group);
  } else {
    for (size_t g = 0; g < groups.size(); ++g) reduce_group(g);
  }
  workers.clear();
  local_stats.reduce_seconds = phase_timer.ElapsedSeconds();
  local_stats.io = source.io_stats() - io_before;

  if (stats != nullptr) *stats = local_stats;
  return counts;
}

}  // namespace qarm
