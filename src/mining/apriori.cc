#include "mining/apriori.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "index/hash_tree.h"

namespace qarm {
namespace {

// Below this many transactions a counting pass is cheaper than waking the
// pool; the serial path is taken regardless of num_threads.
constexpr size_t kMinParallelTransactions = 1024;

}  // namespace

namespace {

// Row r of a flat array of width-m rows.
inline const int32_t* Row(const std::vector<int32_t>& rows, size_t m,
                          size_t r) {
  return rows.data() + r * m;
}

// Binary search for `row` among the sorted width-m rows.
bool ContainsRow(const std::vector<int32_t>& rows, size_t m,
                 const int32_t* row) {
  size_t lo = 0;
  size_t hi = rows.size() / m;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const int32_t* probe = Row(rows, m, mid);
    if (std::lexicographical_compare(probe, probe + m, row, row + m)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < rows.size() / m && std::equal(row, row + m, Row(rows, m, lo));
}

}  // namespace

void AprioriGenFlat(const std::vector<int32_t>& frequent, size_t m,
                    std::vector<int32_t>* candidates,
                    std::vector<int32_t>* scratch) {
  candidates->clear();
  const size_t num = frequent.size() / m;
  std::vector<int32_t>& subset = *scratch;
  subset.resize(m);
  // Join phase: p and q share the first m-1 items; p.last < q.last.
  // `frequent` is sorted, so join partners are contiguous runs, and the
  // joined rows come out sorted.
  size_t run_start = 0;
  while (run_start < num) {
    const int32_t* first = Row(frequent, m, run_start);
    size_t run_end = run_start + 1;
    while (run_end < num &&
           std::equal(first, first + m - 1, Row(frequent, m, run_end))) {
      ++run_end;
    }
    for (size_t i = run_start; i < run_end; ++i) {
      const int32_t* p = Row(frequent, m, i);
      for (size_t j = i + 1; j < run_end; ++j) {
        const int32_t q_last = Row(frequent, m, j)[m - 1];
        // Prune phase: every m-subset must be frequent. The subsets
        // dropping either of the last two items are p and q themselves.
        bool keep = true;
        for (size_t skip = 0; keep && skip + 1 < m; ++skip) {
          size_t w = 0;
          for (size_t t = 0; t < m; ++t) {
            if (t != skip) subset[w++] = p[t];
          }
          subset[w] = q_last;
          keep = ContainsRow(frequent, m, subset.data());
        }
        if (!keep) continue;
        candidates->insert(candidates->end(), p, p + m);
        candidates->push_back(q_last);
      }
    }
    run_start = run_end;
  }
}

std::vector<std::vector<int32_t>> AprioriGen(
    const std::vector<std::vector<int32_t>>& frequent) {
  std::vector<std::vector<int32_t>> candidates;
  if (frequent.empty()) return candidates;
  const size_t m = frequent[0].size();
  std::vector<int32_t> rows;
  rows.reserve(frequent.size() * m);
  for (const std::vector<int32_t>& f : frequent) {
    rows.insert(rows.end(), f.begin(), f.end());
  }
  std::vector<int32_t> flat;
  std::vector<int32_t> scratch;
  AprioriGenFlat(rows, m, &flat, &scratch);
  for (size_t c = 0; c < flat.size(); c += m + 1) {
    candidates.emplace_back(flat.begin() + c, flat.begin() + c + m + 1);
  }
  return candidates;
}

std::vector<FrequentItemset> AprioriMine(
    const std::vector<Transaction>& transactions,
    const AprioriOptions& options) {
  std::vector<FrequentItemset> result;
  if (transactions.empty()) return result;
  uint64_t min_count = static_cast<uint64_t>(std::ceil(
      options.minsup * static_cast<double>(transactions.size()) - 1e-9));
  if (min_count == 0) min_count = 1;

  // Pass 1: count single items directly.
  std::map<int32_t, uint64_t> item_counts;
  for (const Transaction& t : transactions) {
    for (size_t i = 0; i < t.size(); ++i) {
      QARM_DCHECK(i == 0 || t[i - 1] < t[i]);
      ++item_counts[t[i]];
    }
  }
  std::vector<std::vector<int32_t>> frequent;  // L_{k}, sorted
  for (const auto& [item, count] : item_counts) {
    if (count >= min_count && count > 0) {
      result.push_back(FrequentItemset{{item}, count});
      frequent.push_back({item});
    }
  }

  // Pool for the counting passes: created lazily on the first pass that is
  // large enough to shard, then reused across passes.
  const size_t threads = transactions.size() >= kMinParallelTransactions
                             ? ResolveNumThreads(options.num_threads)
                             : 1;
  std::unique_ptr<ThreadPool> pool;

  // Passes k >= 2.
  while (!frequent.empty()) {
    std::vector<std::vector<int32_t>> candidates = AprioriGen(frequent);
    if (candidates.empty()) break;

    HashTree tree(options.leaf_capacity, options.fanout);
    for (size_t i = 0; i < candidates.size(); ++i) {
      tree.Insert(candidates[i], static_cast<int32_t>(i));
    }
    std::vector<uint64_t> counts(candidates.size(), 0);
    if (threads <= 1) {
      for (const Transaction& t : transactions) {
        tree.ForEachSubset(
            t, [&counts](int32_t id) { ++counts[static_cast<size_t>(id)]; });
      }
    } else {
      // Shard the transactions; each worker probes the (now immutable) tree
      // with its own scratch into its own counter vector. Addition commutes,
      // so the shard-order reduction is identical to the serial counts.
      if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
      const std::vector<IndexRange> shards =
          SplitRange(transactions.size(), threads);
      std::vector<std::vector<uint64_t>> partial(
          shards.size(), std::vector<uint64_t>(candidates.size(), 0));
      pool->ParallelFor(shards.size(), [&](size_t s) {
        std::vector<uint64_t>& local = partial[s];
        HashTree::SubsetScratch scratch;
        for (size_t i = shards[s].begin; i < shards[s].end; ++i) {
          tree.ForEachSubset(
              transactions[i],
              [&local](int32_t id) { ++local[static_cast<size_t>(id)]; },
              &scratch);
        }
      });
      for (const std::vector<uint64_t>& local : partial) {
        for (size_t i = 0; i < counts.size(); ++i) counts[i] += local[i];
      }
    }

    frequent.clear();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (counts[i] >= min_count && counts[i] > 0) {
        result.push_back(FrequentItemset{candidates[i], counts[i]});
        frequent.push_back(std::move(candidates[i]));
      }
    }
    // AprioriGen requires sorted input; frequent candidates emerge in
    // generation order, which is already lexicographic, but sort defensively.
    std::sort(frequent.begin(), frequent.end());
  }
  return result;
}

}  // namespace qarm
