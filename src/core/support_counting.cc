#include "core/support_counting.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/cpu_dispatch.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/packed_key_table.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/count_kernels.h"
#include "index/ndim_array.h"

namespace qarm {
namespace {

// One row mask the scan builds per block and shares across every group
// that needs it: rows where `attr` lies in [lo, hi]. That is a categorical
// item (lo == hi), a member's ranged item, or a dimension's not-missing
// test ([0, INT32_MAX], a compare against kMissingValue).
struct SharedMask {
  size_t attr;
  int32_t lo;
  int32_t hi;
};

// A group's scan-side state, beside its counters: a grid's strides as int32
// for the vectorized flat-index computation, the shared masks whose AND
// selects the group's rows (one per categorical item, one per dimension),
// and its members' shared masks (one per member and dimension).
struct ScanGroup {
  std::vector<int32_t> grid_strides;
  std::vector<uint32_t> mask_slots;
  std::vector<uint32_t> member_slots;
};

using MemberRuns = std::vector<std::pair<uint32_t, uint32_t>>;

// Calls fn(m, c) for every member m of a group with candidate index c, in
// member order.
template <typename Fn>
void ForEachMember(const MemberRuns& runs, Fn fn) {
  size_t m = 0;
  for (const auto& [first, end] : runs) {
    for (uint32_t c = first; c < end; ++c) fn(m++, c);
  }
}

std::vector<int32_t> DimSizes(const RecordSource& source,
                              const std::vector<int32_t>& attrs) {
  std::vector<int32_t> dim_sizes;
  dim_sizes.reserve(attrs.size());
  for (int32_t attr : attrs) {
    dim_sizes.push_back(static_cast<int32_t>(
        source.attribute(static_cast<size_t>(attr)).domain_size()));
  }
  return dim_sizes;
}

const char* KindName(CounterKind kind) {
  switch (kind) {
    case CounterKind::kDirect:
      return "direct";
    case CounterKind::kArray:
      return "array";
    case CounterKind::kMembers:
      return "member";
  }
  return "unknown";
}

// The counter budget's admission rule, applied to a pass's groups in plan
// order. Dense grids are budgeted cumulatively: every grid of the pass
// counts against counter_memory_budget_bytes, so total counter memory stays
// bounded no matter how many super-candidates a pass has. A grid over the
// budget is still taken when it is no larger than the member scan's state;
// any other group is a member scan, so the pass always completes.
class CounterBudget {
 public:
  explicit CounterBudget(uint64_t budget) : budget_(budget) {}

  CounterKind Admit(const std::vector<int32_t>& dim_sizes,
                    uint64_t num_members) {
    if (dim_sizes.empty()) return CounterKind::kDirect;
    const uint64_t array_bytes = NDimArray::EstimateBytes(dim_sizes);
    // A member scan holds a count and an item id per dimension per member.
    uint64_t member_bytes = 0;
    if (__builtin_mul_overflow(num_members, 4 * (1 + dim_sizes.size()),
                               &member_bytes)) {
      member_bytes = std::numeric_limits<uint64_t>::max();
    }
    const bool fits_budget = array_bytes <= budget_ &&
                             array_bytes_ <= budget_ - array_bytes;
    // The vectorized flat-index scatter computes int32 cell indices, so a
    // grid stays under 2^31 cells (8 GiB, far past any counter budget).
    const bool grid_indexable =
        array_bytes / sizeof(uint32_t) <=
        static_cast<uint64_t>(std::numeric_limits<int32_t>::max());
    if (grid_indexable && (fits_budget || array_bytes <= member_bytes)) {
      array_bytes_ += array_bytes;
      return CounterKind::kArray;
    }
    member_bytes_ += member_bytes;
    return CounterKind::kMembers;
  }

  uint64_t array_bytes() const { return array_bytes_; }
  uint64_t member_bytes() const { return member_bytes_; }

 private:
  uint64_t budget_;
  uint64_t array_bytes_ = 0;
  uint64_t member_bytes_ = 0;
};

// The scan parallelism: never more shards than blocks (in-memory sources
// pick their block size so that small tables still feed every thread), and
// never more than the counter budget holds copies of every grid, as each
// extra thread counts into its own replica. Grids alone over budget (kept
// because they are no larger than a member scan) leave one thread.
size_t ScanThreads(const RecordSource& source, const MinerOptions& options,
                   uint64_t array_bytes) {
  size_t threads =
      std::max<size_t>(1, std::min(ResolveNumThreads(options.num_threads),
                                   source.num_blocks()));
  if (array_bytes > 0) {
    threads = static_cast<size_t>(std::clamp<uint64_t>(
        options.counter_memory_budget_bytes / array_bytes, 1, threads));
  }
  return threads;
}

}  // namespace

CountPlan PlanCounting(const RecordSource& source, const ItemCatalog& catalog,
                       const CandidateStream& candidates,
                       const MinerOptions& options, CountingStats* stats) {
  const size_t k = candidates.k();
  Timer phase_timer;

  // "Ranged" attributes (quantitative, or categorical under a taxonomy)
  // become dimensions of the super-candidate rectangles; plain categorical
  // items pin a value.
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
  CountPlan plan;
  plan.k = k;
  std::vector<CounterGroup>& groups = plan.groups;
  PackedKeyTable group_keys(k + 1);
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
    plan.member_runs[run_group].emplace_back(run_begin, run_end);
    groups[run_group].num_members += run_end - run_begin;
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
        CounterGroup group;
        group.quant_attrs.assign(key.begin(), key.begin() + quant);
        group.cat_item_ids.assign(key.begin() + quant + 1, key.end());
        groups.push_back(std::move(group));
        plan.member_runs.emplace_back();
      }
      run_group = g;
      run_begin = static_cast<uint32_t>(first + i);
      run_end = run_begin + 1;
    }
  });
  close_run();
  CountingStats& s = *stats;
  s.num_super_candidates = groups.size();
  s.group_seconds = phase_timer.ElapsedSeconds();
  phase_timer.Reset();

  // --- Choose each group's counter. ---
  // Member groups carry their members' ranged item ids, decoded here once,
  // so a scan needs no candidate.
  CounterBudget budget(options.counter_memory_budget_bytes);
  std::vector<int32_t> ids;
  for (size_t g = 0; g < groups.size(); ++g) {
    CounterGroup& group = groups[g];
    group.kind =
        budget.Admit(DimSizes(source, group.quant_attrs), group.num_members);
    switch (group.kind) {
      case CounterKind::kDirect:
        ++s.num_direct;
        continue;
      case CounterKind::kArray:
        ++s.num_array_counters;
        continue;
      case CounterKind::kMembers:
        ++s.num_member_counters;
        break;
    }
    group.member_items.reserve(group.num_members * group.quant_attrs.size());
    for (const auto& [first, end] : plan.member_runs[g]) {
      ids.resize(k * (end - first));
      candidates.GetRange(first, end - first, ids.data());
      for (int32_t id : ids) {
        if (item_code[static_cast<size_t>(id)] < 0) {
          group.member_items.push_back(id);
        }
      }
    }
  }
  s.counter_bytes = budget.array_bytes() + budget.member_bytes();
  if (s.num_member_counters > 0) {
    QARM_LOG(Warning) << "counter memory budget ("
                      << options.counter_memory_budget_bytes
                      << " bytes) exhausted: " << s.num_member_counters
                      << " of " << groups.size()
                      << " super-candidates are counted by member scans "
                         "this pass";
  }
  s.build_seconds = phase_timer.ElapsedSeconds();
  return plan;
}

Status CheckCountPlan(const CountPlan& plan, const RecordSource& source,
                      const ItemCatalog& catalog,
                      const MinerOptions& options) {
  CounterBudget budget(options.counter_memory_budget_bytes);
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    const CounterGroup& group = plan.groups[g];
    for (int32_t attr : group.quant_attrs) {
      if (attr < 0 || static_cast<size_t>(attr) >= source.num_attributes()) {
        return Status::InvalidArgument(
            StrFormat("count plan group %zu names attribute %d of a "
                      "%zu-attribute table",
                      g, attr, source.num_attributes()));
      }
      if (!source.attribute(static_cast<size_t>(attr)).ranged()) {
        return Status::InvalidArgument(
            StrFormat("count plan group %zu counts attribute %d as a "
                      "dimension, but it is not ranged",
                      g, attr));
      }
    }
    for (int32_t id : group.cat_item_ids) {
      if (id < 0 || static_cast<size_t>(id) >= catalog.num_items()) {
        return Status::InvalidArgument(
            StrFormat("count plan group %zu names item %d of a %zu-item "
                      "catalog",
                      g, id, catalog.num_items()));
      }
      const size_t attr = static_cast<size_t>(catalog.item(id).attr);
      if (source.attribute(attr).ranged()) {
        return Status::InvalidArgument(
            StrFormat("count plan group %zu names item %d, which is not "
                      "categorical",
                      g, id));
      }
    }
    if (group.kind != CounterKind::kDirect &&
        (group.num_members == 0 ||
         group.num_members > std::numeric_limits<uint32_t>::max())) {
      return Status::InvalidArgument(
          StrFormat("count plan group %zu has %llu members", g,
                    static_cast<unsigned long long>(group.num_members)));
    }
    // A member scan builds a range mask per member item: every id must be
    // an item of the (ranged) attribute of the dimension it stands at.
    const size_t dims = group.quant_attrs.size();
    for (size_t i = 0; i < group.member_items.size(); ++i) {
      const int32_t id = group.member_items[i];
      const int32_t attr = group.quant_attrs[i % dims];
      if (id < 0 || static_cast<size_t>(id) >= catalog.num_items() ||
          catalog.item(id).attr != attr) {
        return Status::InvalidArgument(StrFormat(
            "count plan group %zu names member item %d, not an item of "
            "attribute %d of its %zu-item catalog",
            g, id, attr, catalog.num_items()));
      }
    }
    const CounterKind admitted =
        budget.Admit(DimSizes(source, group.quant_attrs), group.num_members);
    if (admitted != group.kind) {
      return Status::InvalidArgument(StrFormat(
          "count plan group %zu (%zu dimensions, %llu members) asks for a "
          "%s counter, but a %llu-byte counter budget gives it a %s counter",
          g, group.quant_attrs.size(),
          static_cast<unsigned long long>(group.num_members),
          KindName(group.kind),
          static_cast<unsigned long long>(options.counter_memory_budget_bytes),
          KindName(admitted)));
    }
  }
  return Status::OK();
}

PassCounters MakeCounters(const CountPlan& plan, const RecordSource& source) {
  PassCounters counters(plan.groups.size());
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    const CounterGroup& group = plan.groups[g];
    if (group.kind == CounterKind::kArray) {
      counters[g].grid =
          std::make_unique<NDimArray>(DimSizes(source, group.quant_attrs));
    } else if (group.kind != CounterKind::kDirect) {
      counters[g].members.assign(group.num_members, 0);
    }
  }
  return counters;
}

Result<PassCounters> ScanCounters(const RecordSource& source,
                                  const ItemCatalog& catalog,
                                  const CountPlan& plan,
                                  const MinerOptions& options,
                                  CountingStats* stats) {
  Timer phase_timer;
  const ScanIoStats io_before = source.io_stats();
  const std::vector<CounterGroup>& groups = plan.groups;
  CountingStats& s = *stats;

  // --- Build the counters and the scan structures. ---
  PassCounters primary = MakeCounters(plan, source);
  std::vector<ScanGroup> scan(groups.size());
  uint64_t array_bytes = 0;
  size_t max_dims = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    const CounterGroup& group = groups[g];
    const size_t dims = group.quant_attrs.size();
    max_dims = std::max(max_dims, dims);
    if (group.kind == CounterKind::kArray) {
      const NDimArray& grid = *primary[g].grid;
      for (uint64_t stride : grid.strides()) {
        scan[g].grid_strides.push_back(static_cast<int32_t>(stride));
      }
      array_bytes += grid.bytes();
    }
  }
  const size_t threads_used = ScanThreads(source, options, array_bytes);
  s.threads_used = threads_used;
  s.replicated_bytes = (threads_used - 1) * array_bytes;

  // --- Shared row masks. ---
  // Every group is counted per block from one bitmask over the block's
  // rows. Groups share the masks that mask is built from: the scan computes
  // one equality mask per distinct categorical item of the pass and one
  // not-missing mask per distinct dimension, and each group ANDs together
  // the masks of its items and dimensions. With G groups, I distinct items
  // and n rows, a block then costs about I * n compares plus G * n / 64
  // word ANDs, where per-group sweeps would cost G * n compares. Members
  // share their ranged items' masks the same way: a member costs dims * n
  // / 64 word ANDs, and the range compares are bounded by the items.
  const CountKernels& kern = CountKernels::Active();
  s.isa = kern.isa;
  std::vector<SharedMask> masks;
  std::vector<int32_t> item_slot(catalog.num_items(), -1);
  std::vector<int32_t> dim_slot(source.num_attributes(), -1);
  auto slot_of = [&masks](int32_t* slot, SharedMask mask) {
    if (*slot < 0) {
      *slot = static_cast<int32_t>(masks.size());
      masks.push_back(mask);
    }
    return static_cast<uint32_t>(*slot);
  };
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int32_t id : groups[g].cat_item_ids) {
      // A categorical item pins attr to one value; missing (-1) never
      // equals a mapped value (>= 0), so the compare also filters nulls.
      const RangeItem& item = catalog.item(id);
      scan[g].mask_slots.push_back(
          slot_of(&item_slot[static_cast<size_t>(id)],
                  {static_cast<size_t>(item.attr), item.lo, item.lo}));
    }
    for (int32_t attr : groups[g].quant_attrs) {
      // A record lacking any dimension supports no member.
      scan[g].mask_slots.push_back(
          slot_of(&dim_slot[static_cast<size_t>(attr)],
                  {static_cast<size_t>(attr), 0,
                   std::numeric_limits<int32_t>::max()}));
    }
    for (int32_t id : groups[g].member_items) {
      // Missing (-1) lies below every range, so it never matches.
      const RangeItem& item = catalog.item(id);
      scan[g].member_slots.push_back(
          slot_of(&item_slot[static_cast<size_t>(id)],
                  {static_cast<size_t>(item.attr), item.lo, item.hi}));
    }
  }
  s.build_seconds += phase_timer.ElapsedSeconds();
  phase_timer.Reset();

  const size_t max_block_rows = source.max_block_rows();
  const size_t mask_stride = MaskWords(max_block_rows);

  // --- The pass over the database, sharded across threads. ---
  // Each thread streams a contiguous *block* range through its own
  // BlockView into its own counters, so memory stays bounded by the blocks
  // in flight no matter how large the source is.
  //
  // Per block, the thread builds the shared masks, then finishes each group
  // from its ANDed mask: popcount, flat-index scatter, or per-member ANDs
  // with the members' range masks.
  auto scan_blocks = [&](size_t block_begin, size_t block_end,
                         PassCounters& counters) -> Status {
    std::vector<uint64_t> shared_masks(masks.size() * mask_stride);
    std::vector<uint64_t> group_mask(mask_stride);
    std::vector<int32_t> flat_idx(max_block_rows);
    std::vector<const int32_t*> group_cols(max_dims);
    std::vector<const uint64_t*> member_masks(max_dims);
    BlockView view;

    // One group over one block of n rows.
    auto scan_group = [&](size_t g, size_t n) {
      const CounterGroup& group = groups[g];
      const ScanGroup& sg = scan[g];
      GroupCounter& counter = counters[g];
      const size_t dims = group.quant_attrs.size();
      const size_t words = MaskWords(n);
      auto shared = [&](size_t slot) {
        return shared_masks.data() + slot * mask_stride;
      };
      const uint64_t* mask = shared(sg.mask_slots[0]);
      if (sg.mask_slots.size() > 1) {
        uint64_t* dst = group_mask.data();
        const uint64_t* second = shared(sg.mask_slots[1]);
        for (size_t w = 0; w < words; ++w) dst[w] = mask[w] & second[w];
        for (size_t i = 2; i < sg.mask_slots.size(); ++i) {
          const uint64_t* next = shared(sg.mask_slots[i]);
          for (size_t w = 0; w < words; ++w) dst[w] &= next[w];
        }
        mask = dst;
      }
      const uint64_t matches = kern.popcount(mask, nullptr, 0, n);
      if (dims == 0) {
        counter.direct += matches;
        return;
      }
      if (matches == 0) return;
      for (size_t d = 0; d < dims; ++d) {
        group_cols[d] = view.column(static_cast<size_t>(group.quant_attrs[d]));
      }
      if (counter.grid != nullptr) {
        kern.flat_index(flat_idx.data(), group_cols.data(),
                        sg.grid_strides.data(), dims, n);
        NDimArray* grid = counter.grid.get();
        const int32_t* idx = flat_idx.data();
        for (size_t w = 0; w < words; ++w) {
          uint64_t bits = mask[w];
          while (bits != 0) {
            const size_t r =
                w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            grid->IncrementFlat(
                static_cast<size_t>(static_cast<uint32_t>(idx[r])));
          }
        }
        return;
      }
      // A member scan: per member, the popcount of the group mask ANDed
      // with the shared range masks of its items.
      const uint32_t* slots = sg.member_slots.data();
      for (uint32_t& count : counter.members) {
        for (size_t d = 0; d < dims; ++d) member_masks[d] = shared(slots[d]);
        count += static_cast<uint32_t>(
            kern.popcount(mask, member_masks.data(), dims, n));
        slots += dims;
      }
    };

    for (size_t b = block_begin; b < block_end; ++b) {
      QARM_RETURN_NOT_OK(source.ReadBlock(b, &view));
      const size_t block_rows = view.num_rows();
      for (size_t i = 0; i < masks.size(); ++i) {
        uint64_t* mask = shared_masks.data() + i * mask_stride;
        const auto [attr, lo, hi] = masks[i];
        const int32_t* col = view.column(attr);
        kern.fill_ones(mask, block_rows);
        if (lo == hi) {
          kern.mask_eq(mask, col, block_rows, lo);
        } else if (hi == std::numeric_limits<int32_t>::max()) {
          kern.mask_neq(mask, col, block_rows, kMissingValue);
        } else {
          kern.mask_range(mask, col, block_rows, lo, hi);
        }
      }
      for (size_t g = 0; g < groups.size(); ++g) scan_group(g, block_rows);
    }
    return Status::OK();
  };

  if (threads_used == 1) {
    QARM_RETURN_NOT_OK(scan_blocks(0, source.num_blocks(), primary));
  } else {
    // Thread 0 counts into the primary counters, threads 1..T-1 into
    // replicas that are merged in afterwards, so the final counts are
    // identical to a serial scan (integer addition is order-independent).
    ThreadPool pool(threads_used);
    std::vector<PassCounters> replicas(threads_used);
    replicas[0] = std::move(primary);
    const std::vector<IndexRange> shards =
        SplitRange(source.num_blocks(), threads_used);
    std::vector<Status> statuses(shards.size());
    pool.ParallelFor(shards.size(), [&](size_t w) {
      // Allocate the replicas on the thread itself (first-touch locality).
      if (w > 0) replicas[w] = MakeCounters(plan, source);
      statuses[w] = scan_blocks(shards[w].begin, shards[w].end, replicas[w]);
    });
    for (const Status& status : statuses) {
      QARM_RETURN_NOT_OK(status);
    }
    // One task per group merges its replicas as a pairwise tree in fixed
    // order, each merge adding two cache-warm shards. Every task touches
    // only its own group, and the sums are exact, so the schedule cannot
    // affect the result.
    const size_t num_replicas = replicas.size();
    pool.ParallelFor(groups.size(), [&](size_t g) {
      auto shard = [&](size_t r) -> GroupCounter& { return replicas[r][g]; };
      for (size_t step = 1; step < num_replicas; step *= 2) {
        for (size_t i = 0; i + step < num_replicas; i += 2 * step) {
          GroupCounter& dst = shard(i);
          GroupCounter& src = shard(i + step);
          if (dst.grid != nullptr) {
            dst.grid->AddFrom(*src.grid);
            src.grid.reset();
          } else if (!dst.members.empty()) {
            AddU32Span(dst.members.data(), src.members.data(),
                       dst.members.size());
          } else {
            dst.direct += src.direct;
          }
        }
      }
    });
    primary = std::move(replicas[0]);
  }
  s.scan_seconds = phase_timer.ElapsedSeconds();
  s.io = source.io_stats() - io_before;
  return primary;
}

std::vector<uint32_t> ReduceCounts(const CountPlan& plan,
                                   const RecordSource& source,
                                   const ItemCatalog& catalog,
                                   const CandidateStream& candidates,
                                   size_t num_threads, PassCounters* counters,
                                   CountingStats* stats) {
  Timer phase_timer;
  const size_t k = candidates.k();
  std::vector<uint32_t> counts(candidates.size(), 0);

  // Per item, its bounds when its attribute is a grid dimension, looked up
  // once per call rather than through the catalog and the source's schema
  // once per item per member.
  struct ItemBounds {
    int32_t lo;
    int32_t hi;
    bool ranged;
  };
  std::vector<ItemBounds> bounds(catalog.num_items());
  for (size_t id = 0; id < bounds.size(); ++id) {
    const RangeItem& item = catalog.item(static_cast<int32_t>(id));
    bounds[id] = {item.lo, item.hi,
                  source.attribute(static_cast<size_t>(item.attr)).ranged()};
  }

  // One task per group: build a grid's prefix sums, then decode the
  // members' rectangles in chunks and count them batched
  // (NDimArray::CountRects, one vectorized inclusion-exclusion for any
  // grid of up to kRectKernelMaxDims dimensions). Every task writes a
  // disjoint slice of `counts`, so the schedule cannot affect the result.
  auto reduce_group = [&](size_t g) {
    const CounterGroup& group = plan.groups[g];
    const MemberRuns& runs = plan.member_runs[g];
    GroupCounter& counter = (*counters)[g];
    if (group.kind == CounterKind::kDirect) {
      // Counts are bounded by the record count, but that invariant lives
      // far from here (in the scan); guard the narrowing explicitly.
      QARM_CHECK_LE(counter.direct, std::numeric_limits<uint32_t>::max());
      // One itemset; more than one member only when the candidate set
      // repeated it.
      ForEachMember(runs, [&](size_t, uint32_t c) {
        counts[c] = static_cast<uint32_t>(counter.direct);
      });
      return;
    }
    if (counter.grid == nullptr) {
      ForEachMember(runs, [&](size_t m, uint32_t c) {
        counts[c] = counter.members[m];
      });
      return;
    }
    NDimArray& grid = *counter.grid;
    grid.BuildPrefixSums();
    const size_t dims = group.quant_attrs.size();
    const size_t num_members = static_cast<size_t>(group.num_members);
    // Chunked batched collect: decode member runs straight into dim-major
    // SoA bounds, then count the whole chunk in one call.
    constexpr size_t kChunk = 2048;
    const size_t chunk = std::min(kChunk, num_members);
    std::vector<int32_t> los(dims * chunk);
    std::vector<int32_t> his(dims * chunk);
    std::vector<uint32_t> out(chunk);
    std::vector<uint32_t> chunk_members(chunk);
    std::vector<int32_t> ids(k * chunk);
    size_t begin = 0;
    size_t num = chunk;
    size_t filled = 0;
    for (const auto& [first, end] : runs) {
      for (uint32_t c = first; c < end;) {
        const size_t piece = std::min<size_t>(end - c, num - filled);
        candidates.GetRange(c, piece, ids.data());
        for (size_t p = 0; p < piece; ++p, ++c) {
          // Bounds are dim-major over the chunk's `num` members.
          const int32_t* member = ids.data() + p * k;
          size_t d = 0;
          for (size_t i = 0; i < k; ++i) {
            const ItemBounds& item = bounds[static_cast<size_t>(member[i])];
            if (!item.ranged) continue;
            los[d * num + filled] = item.lo;
            his[d * num + filled] = item.hi;
            ++d;
          }
          chunk_members[filled++] = c;
        }
        if (filled < num) continue;
        grid.CountRects(los.data(), his.data(), num, out.data());
        for (size_t m = 0; m < num; ++m) counts[chunk_members[m]] = out[m];
        begin += num;
        num = std::min(chunk, num_members - begin);
        filled = 0;
      }
    }
    counter.grid.reset();  // release the grid before the next group collects
  };

  const size_t num_groups = plan.groups.size();
  if (num_threads > 1 && num_groups > 1) {
    ThreadPool pool(std::min(num_threads, num_groups));
    pool.ParallelFor(num_groups, reduce_group);
  } else {
    for (size_t g = 0; g < num_groups; ++g) reduce_group(g);
  }
  stats->reduce_seconds = phase_timer.ElapsedSeconds();
  return counts;
}

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
  return CountSupports(
      source, catalog, candidates, options,
      [&](const CountPlan& plan, CountingStats* scan_stats) {
        return ScanCounters(source, catalog, plan, options, scan_stats);
      },
      stats);
}

Result<std::vector<uint32_t>> CountSupports(const RecordSource& source,
                                            const ItemCatalog& catalog,
                                            const CandidateStream& candidates,
                                            const MinerOptions& options,
                                            const ScanCountersFn& scan,
                                            CountingStats* stats) {
  if (candidates.size() == 0) return std::vector<uint32_t>();
  CountingStats local_stats;
  const CountPlan plan =
      PlanCounting(source, catalog, candidates, options, &local_stats);
  QARM_ASSIGN_OR_RETURN(PassCounters counters, scan(plan, &local_stats));
  std::vector<uint32_t> counts =
      ReduceCounts(plan, source, catalog, candidates,
                   local_stats.threads_used, &counters, &local_stats);
  if (stats != nullptr) *stats = local_stats;
  return counts;
}

}  // namespace qarm
