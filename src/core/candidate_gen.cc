#include "core/candidate_gen.h"

#include <algorithm>
#include <memory>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace qarm {
namespace {

// Below this many (k-1)-itemsets the join/prune is cheaper than waking a
// pool; the serial path is taken regardless of num_threads.
constexpr size_t kMinParallelItemsets = 256;

// Tasks per worker: more chunks than workers so the pool's dynamic task
// claiming evens out runs of very different sizes (join cost is quadratic
// in the run length).
constexpr size_t kChunksPerThread = 8;

// Appends the join-phase candidates whose *outer* itemset index lies in
// [first_i, last_i) to `out`: itemset i joins every partner j in
// (i, run_end[i]) whose last attribute differs. The serial join emits
// candidates in (i ascending, j ascending) order, so sharding by outer
// index and concatenating the chunk outputs in chunk order reproduces the
// serial candidate order exactly — even when all of L_{k-1} is one run
// (the C2 join, whose shared prefix is empty).
void JoinOuterRange(const ItemCatalog& catalog, const ItemsetSet& frequent,
                    const std::vector<size_t>& run_end, size_t first_i,
                    size_t last_i, ItemsetSet* out) {
  const size_t k_minus_1 = frequent.k();
  std::vector<int32_t> scratch(k_minus_1 + 1);
  for (size_t i = first_i; i < last_i; ++i) {
    const int32_t last_i_id = frequent.itemset(i)[k_minus_1 - 1];
    const int32_t attr_i = catalog.item(last_i_id).attr;
    const size_t end = run_end[i];
    for (size_t j = i + 1; j < end; ++j) {
      const int32_t last_j = frequent.itemset(j)[k_minus_1 - 1];
      // Item ids are sorted by attribute, so within the run attributes are
      // non-decreasing; all partners after the first attribute change
      // qualify.
      if (catalog.item(last_j).attr == attr_i) continue;
      std::copy(frequent.itemset(i), frequent.itemset(i) + k_minus_1,
                scratch.begin());
      scratch[k_minus_1] = last_j;
      out->Append(scratch.data());
    }
  }
}

// keep[c] = 1 iff every (k-1)-subset of candidate c that skips an *earlier*
// position is frequent (dropping the last or second-to-last item reproduces
// the two join parents, which are frequent by construction).
void PruneRange(const ItemsetSet& frequent, const ItemsetSet& candidates,
                size_t begin, size_t end, std::vector<uint8_t>* keep) {
  const size_t k = candidates.k();
  std::vector<int32_t> subset(k - 1);
  for (size_t c = begin; c < end; ++c) {
    const int32_t* ids = candidates.itemset(c);
    bool ok = true;
    for (size_t skip = 0; ok && skip + 2 < k; ++skip) {
      size_t out = 0;
      for (size_t i = 0; i < k; ++i) {
        if (i != skip) subset[out++] = ids[i];
      }
      ok = frequent.Contains(subset.data());
    }
    (*keep)[c] = ok ? 1 : 0;
  }
}

}  // namespace

void ItemsetSet::AppendAll(const ItemsetSet& other) {
  QARM_CHECK_EQ(k_, other.k_);
  flat_.insert(flat_.end(), other.flat_.begin(), other.flat_.end());
}

bool ItemsetSet::Contains(const int32_t* ids) const {
  if (k_ == 0) return false;
  size_t lo = 0, hi = size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    const int32_t* candidate = itemset(mid);
    int cmp = 0;
    for (size_t i = 0; i < k_; ++i) {
      if (candidate[i] != ids[i]) {
        cmp = candidate[i] < ids[i] ? -1 : 1;
        break;
      }
    }
    if (cmp == 0) return true;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

ItemsetSet GenerateCandidates(const ItemCatalog& catalog,
                              const ItemsetSet& frequent, size_t num_threads,
                              CandidateGenStats* stats) {
  const size_t k_minus_1 = frequent.k();
  ItemsetSet candidates(k_minus_1 + 1);
  CandidateGenStats local_stats;
  Timer total_timer;
  if (frequent.empty()) {
    if (stats != nullptr) *stats = local_stats;
    return candidates;
  }

  const size_t n = frequent.size();
  const size_t threads =
      n >= kMinParallelItemsets ? ResolveNumThreads(num_threads) : 1;

  // Join phase: runs sharing the first k-2 ids are contiguous because the
  // set is lexicographically sorted. Run boundaries are found in one cheap
  // serial sweep (run_end[i] = end of the run containing itemset i); the
  // quadratic join work is sharded by outer itemset index.
  Timer phase_timer;
  const size_t prefix_len = k_minus_1 - 1;
  std::vector<size_t> run_end(n);
  {
    size_t run_start = 0;
    while (run_start < n) {
      const int32_t* base = frequent.itemset(run_start);
      size_t end = run_start + 1;
      while (end < n &&
             std::equal(base, base + prefix_len, frequent.itemset(end))) {
        ++end;
      }
      for (size_t i = run_start; i < end; ++i) run_end[i] = end;
      run_start = end;
    }
  }

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    local_stats.threads_used = threads;
  }

  if (pool == nullptr) {
    JoinOuterRange(catalog, frequent, run_end, 0, n, &candidates);
  } else {
    // One ItemsetSet per chunk, concatenated in chunk order: identical to
    // the serial output no matter which worker ran which chunk.
    const std::vector<IndexRange> chunks =
        SplitRange(n, threads * kChunksPerThread);
    std::vector<ItemsetSet> partial(chunks.size(), ItemsetSet(k_minus_1 + 1));
    pool->ParallelFor(chunks.size(), [&](size_t chunk) {
      JoinOuterRange(catalog, frequent, run_end, chunks[chunk].begin,
                     chunks[chunk].end, &partial[chunk]);
    });
    size_t total = 0;
    for (const ItemsetSet& p : partial) total += p.size();
    candidates.Reserve(total);
    for (const ItemsetSet& p : partial) candidates.AppendAll(p);
  }
  local_stats.join_candidates = candidates.size();
  local_stats.peak_materialized = candidates.size();
  local_stats.join_seconds = phase_timer.ElapsedSeconds();
  phase_timer.Reset();

  // Prune phase (k >= 3): every (k-1)-subset must be frequent. Each worker
  // marks keep flags over its own candidate range; survivors are collected
  // in index order, so the result is order-identical to the serial prune.
  if (k_minus_1 >= 2 && !candidates.empty()) {
    std::vector<uint8_t> keep(candidates.size(), 0);
    if (pool == nullptr || candidates.size() < kMinParallelItemsets) {
      PruneRange(frequent, candidates, 0, candidates.size(), &keep);
    } else {
      const std::vector<IndexRange> chunks =
          SplitRange(candidates.size(), threads * kChunksPerThread);
      pool->ParallelFor(chunks.size(), [&](size_t chunk) {
        PruneRange(frequent, candidates, chunks[chunk].begin,
                   chunks[chunk].end, &keep);
      });
    }
    ItemsetSet pruned(k_minus_1 + 1);
    size_t survivors = 0;
    for (uint8_t flag : keep) survivors += flag;
    pruned.Reserve(survivors);
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (keep[c]) pruned.Append(candidates.itemset(c));
    }
    candidates = std::move(pruned);
  }
  local_stats.prune_seconds = phase_timer.ElapsedSeconds();
  local_stats.seconds = total_timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return candidates;
}

ImplicitPairStream::ImplicitPairStream(const ItemCatalog& catalog,
                                       size_t chunk_rows)
    : chunk_rows_(chunk_rows == 0 ? 1 : chunk_rows) {
  const size_t n = catalog.num_items();
  partner_begin_.resize(n);
  prefix_.resize(n + 1);
  // Item ids are sorted by attribute; one sweep finds each attribute's end,
  // which is every member's first valid partner.
  size_t run_start = 0;
  while (run_start < n) {
    const int32_t attr = catalog.item(static_cast<int32_t>(run_start)).attr;
    size_t end = run_start + 1;
    while (end < n &&
           catalog.item(static_cast<int32_t>(end)).attr == attr) {
      ++end;
    }
    for (size_t i = run_start; i < end; ++i) {
      partner_begin_[i] = static_cast<int32_t>(end);
    }
    run_start = end;
  }
  prefix_[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    prefix_[i + 1] =
        prefix_[i] + (n - static_cast<size_t>(partner_begin_[i]));
  }
  total_ = static_cast<size_t>(prefix_[n]);
}

void ImplicitPairStream::ForEachChunk(
    const std::function<void(size_t, const ItemsetSet&)>& fn) const {
  const size_t n = partner_begin_.size();
  ItemsetSet chunk(2);
  chunk.Reserve(std::min(chunk_rows_, total_));
  size_t first = 0;
  size_t rows = 0;
  int32_t pair[2];
  for (size_t i = 0; i < n; ++i) {
    pair[0] = static_cast<int32_t>(i);
    for (int32_t j = partner_begin_[i]; j < static_cast<int32_t>(n); ++j) {
      pair[1] = j;
      chunk.Append(pair);
      if (++rows == chunk_rows_) {
        fn(first, chunk);
        first += rows;
        rows = 0;
        chunk.Clear();
      }
    }
  }
  if (!chunk.empty()) fn(first, chunk);
}

void ImplicitPairStream::Get(size_t c, int32_t* ids) const {
  // Pairs with outer item i occupy [prefix_[i], prefix_[i+1]); upper_bound
  // lands past the owning range (skipping items with no partners, whose
  // ranges are empty).
  const auto it =
      std::upper_bound(prefix_.begin(), prefix_.end(), static_cast<uint64_t>(c));
  const size_t i = static_cast<size_t>(it - prefix_.begin()) - 1;
  ids[0] = static_cast<int32_t>(i);
  ids[1] = partner_begin_[i] + static_cast<int32_t>(c - prefix_[i]);
}

}  // namespace qarm
