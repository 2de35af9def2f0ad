#include "core/candidate_gen.h"

#include <algorithm>
#include <memory>

#include "common/macros.h"
#include "common/packed_key_table.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace qarm {
namespace {

// Below this many (k-1)-itemsets the join is cheaper than waking a
// pool; the serial path is taken regardless of num_threads.
constexpr size_t kMinParallelItemsets = 256;

// Tasks per worker: more chunks than workers so the pool's dynamic task
// claiming evens out runs of very different sizes (join cost is quadratic
// in the run length).
constexpr size_t kChunksPerThread = 8;

// L_{k-1}'s prefix runs. Runs sharing the first k-2 ids are contiguous
// because the level is lexicographically sorted: run_end[i] is the end of
// the run holding itemset i, and `prefixes` maps each run's (k-2)-prefix
// to its id, run_start[id] being the run's first itemset (k >= 3 only; at
// k = 2 every prefix is empty and the table stays empty).
struct PrefixRuns {
  std::vector<size_t> run_end;
  PackedKeyTable prefixes;
  std::vector<size_t> run_start;
};

PrefixRuns IndexPrefixRuns(const ItemsetSet& frequent) {
  const size_t n = frequent.size();
  const size_t prefix_len = frequent.k() - 1;
  PrefixRuns runs{std::vector<size_t>(n), PackedKeyTable(prefix_len), {}};
  std::vector<int32_t> prefix_words;
  size_t run_start = 0;
  while (run_start < n) {
    const int32_t* base = frequent.itemset(run_start);
    size_t end = run_start + 1;
    while (end < n &&
           std::equal(base, base + prefix_len, frequent.itemset(end))) {
      ++end;
    }
    for (size_t i = run_start; i < end; ++i) runs.run_end[i] = end;
    if (prefix_len > 0) {
      prefix_words.insert(prefix_words.end(), base, base + prefix_len);
      runs.run_start.push_back(run_start);
    }
    run_start = end;
  }
  if (prefix_len > 0) {
    runs.prefixes.Assign(std::move(prefix_words));
    runs.prefixes.BuildIndex();
  }
  return runs;
}

// Appends the candidates whose *outer* itemset index lies in [first_i,
// last_i) to `out` and adds the pairs the join matched to `*joined`.
// Itemset i joins every partner j in (i, run_end[i]) whose last attribute
// differs; the candidate i + last(j) is kept when each (k-1)-subset that
// skips an *earlier* position s < k-2 is frequent (dropping the last or
// second-to-last item gives the two join parents). That subset is "i
// without s" followed by last(j), so it lies in the run of prefix "i
// without s", found once per i. Partners come in ascending order of last
// item, as do the itemsets of that run, so each check is one forward
// cursor step: a merge, not a search. Sharding by outer index and
// concatenating the chunk outputs in chunk order reproduces the serial
// candidate order exactly, even when all of L_{k-1} is one run (the C2
// join, whose shared prefix is empty).
void JoinOuterRange(const ItemCatalog& catalog, const ItemsetSet& frequent,
                    const PrefixRuns& runs, size_t first_i, size_t last_i,
                    ItemsetSet* out, size_t* joined) {
  const size_t k_minus_1 = frequent.k();
  const size_t num_subsets = k_minus_1 - 1;
  std::vector<int32_t> scratch(k_minus_1 + 1);
  std::vector<int32_t> subset_prefix(num_subsets);
  // Per skipped position: the cursor into its subset's run, and the end.
  std::vector<size_t> cursor(num_subsets);
  std::vector<size_t> cursor_end(num_subsets);
  auto last_of = [&](size_t i) { return frequent.itemset(i)[k_minus_1 - 1]; };
  auto find_subset_runs = [&](const int32_t* base) {
    for (size_t s = 0; s < num_subsets; ++s) {
      std::copy(base, base + s, subset_prefix.begin());
      std::copy(base + s + 1, base + k_minus_1, subset_prefix.begin() + s);
      const uint32_t run = runs.prefixes.Find(subset_prefix.data());
      if (run == PackedKeyTable::kNotFound) return false;
      cursor[s] = runs.run_start[run];
      cursor_end[s] = runs.run_end[cursor[s]];
    }
    return true;
  };
  // Item ids are sorted by attribute, so within i's run the partners
  // sharing i's last attribute come first; every later one joins. The
  // joined pairs bound the output, which is reserved once.
  std::vector<size_t> first_partner(last_i - first_i);
  size_t num_joined = 0;
  for (size_t i = first_i; i < last_i; ++i) {
    const size_t end = runs.run_end[i];
    const int32_t attr_i = catalog.item(last_of(i)).attr;
    size_t j = i + 1;
    while (j < end && catalog.item(last_of(j)).attr == attr_i) ++j;
    first_partner[i - first_i] = j;
    num_joined += end - j;
  }
  *joined += num_joined;
  out->Reserve(out->size() + num_joined);
  for (size_t i = first_i; i < last_i; ++i) {
    const size_t end = runs.run_end[i];
    size_t j = first_partner[i - first_i];
    const int32_t* base = frequent.itemset(i);
    if (j == end || !find_subset_runs(base)) continue;
    std::copy(base, base + k_minus_1, scratch.begin());
    for (; j < end; ++j) {
      const int32_t last_j = last_of(j);
      bool frequent_subsets = true;
      for (size_t s = 0; frequent_subsets && s < num_subsets; ++s) {
        size_t& c = cursor[s];
        while (c < cursor_end[s] && last_of(c) < last_j) ++c;
        frequent_subsets = c < cursor_end[s] && last_of(c) == last_j;
      }
      if (!frequent_subsets) continue;
      scratch[k_minus_1] = last_j;
      out->Append(scratch.data());
    }
  }
}

}  // namespace

void ItemsetSet::AppendAll(const ItemsetSet& other) {
  QARM_CHECK_EQ(k_, other.k_);
  flat_.insert(flat_.end(), other.flat_.begin(), other.flat_.end());
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

  const PrefixRuns runs = IndexPrefixRuns(frequent);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    local_stats.threads_used = threads;
  }

  Timer join_timer;
  if (pool == nullptr) {
    JoinOuterRange(catalog, frequent, runs, 0, n, &candidates,
                   &local_stats.join_candidates);
  } else {
    // One ItemsetSet per chunk, concatenated in chunk order: identical to
    // the serial output no matter which worker ran which chunk.
    const std::vector<IndexRange> chunks =
        SplitRange(n, threads * kChunksPerThread);
    std::vector<ItemsetSet> partial(chunks.size(), ItemsetSet(k_minus_1 + 1));
    std::vector<size_t> joined(chunks.size(), 0);
    pool->ParallelFor(chunks.size(), [&](size_t chunk) {
      JoinOuterRange(catalog, frequent, runs, chunks[chunk].begin,
                     chunks[chunk].end, &partial[chunk], &joined[chunk]);
    });
    size_t total = 0;
    for (size_t chunk = 0; chunk < chunks.size(); ++chunk) {
      total += partial[chunk].size();
      local_stats.join_candidates += joined[chunk];
    }
    candidates.Reserve(total);
    for (const ItemsetSet& p : partial) candidates.AppendAll(p);
  }
  local_stats.peak_materialized = candidates.size();
  local_stats.join_seconds = join_timer.ElapsedSeconds();
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

void ImplicitPairStream::GetRange(size_t first, size_t count,
                                  int32_t* ids) const {
  if (count == 0) return;
  // Pairs with outer item i occupy [prefix_[i], prefix_[i+1]); upper_bound
  // lands past the owning range (skipping items with no partners, whose
  // ranges are empty). Later pairs walk on from there.
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(),
                                   static_cast<uint64_t>(first));
  size_t i = static_cast<size_t>(it - prefix_.begin()) - 1;
  for (size_t c = first; c < first + count; ++c, ids += 2) {
    while (c >= prefix_[i + 1]) ++i;
    ids[0] = static_cast<int32_t>(i);
    ids[1] = partner_begin_[i] + static_cast<int32_t>(c - prefix_[i]);
  }
}

}  // namespace qarm
