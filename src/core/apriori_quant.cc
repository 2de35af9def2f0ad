#include "core/apriori_quant.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/candidate_gen.h"

namespace qarm {

FrequentItemsetResult MineFrequentItemsets(const MappedTable& table,
                                           const ItemCatalog& catalog,
                                           const MinerOptions& options) {
  const MappedTableSource source(
      table, PickBlockRows(table.num_rows(),
                           ResolveNumThreads(options.num_threads),
                           options.stream_block_rows));
  Result<FrequentItemsetResult> result =
      MineFrequentItemsets(source, catalog, options);
  QARM_CHECK(result.ok());  // in-memory block reads cannot fail
  return std::move(result).value();
}

namespace {

// Pass 2's frontier is all of L1 exactly when it lists every catalog item
// in id order — always true for runs the miner produced (pass 1 emits the
// whole catalog), but a restored checkpoint earns a linear verify before
// the implicit cross product substitutes for the materialized join.
bool FrontierIsWholeCatalog(const ItemsetSet& frequent,
                            const ItemCatalog& catalog) {
  if (frequent.k() != 1 || frequent.size() != catalog.num_items()) {
    return false;
  }
  for (size_t i = 0; i < frequent.size(); ++i) {
    if (frequent.itemset(i)[0] != static_cast<int32_t>(i)) return false;
  }
  return true;
}

}  // namespace

Result<FrequentItemsetResult> MineFrequentItemsets(
    const RecordSource& source, const ItemCatalog& catalog,
    const MinerOptions& options, const FrequentItemsetResult* resume_from,
    const AfterPassFn& after_pass, const CountSupportsFn& count_supports) {
  FrequentItemsetResult result;
  const size_t num_rows = source.num_rows();
  uint64_t min_count = static_cast<uint64_t>(
      std::ceil(options.minsup * static_cast<double>(num_rows) - 1e-9));
  if (min_count == 0) min_count = 1;

  Timer timer;
  size_t k = 0;
  ItemsetSet frequent(1);
  if (resume_from != nullptr && !resume_from->passes.empty()) {
    // Skip the completed levels and rebuild the frontier from the last
    // one; its itemsets were checkpointed in generation (lexicographic)
    // order, which GenerateCandidates requires.
    result = *resume_from;
    if (options.collect_candidate_counts) {
      // A base restored from an older checkpoint may lack some passes'
      // counts; keep the vector parallel to `passes` regardless.
      result.candidate_counts.resize(result.passes.size());
    }
    const size_t last_k = result.passes.back().k;
    if (result.itemsets.num_levels() != last_k) {
      return Status::Internal(
          "resumed itemsets do not match the resumed passes");
    }
    frequent = ItemsetSet(last_k, result.itemsets.level_ids(last_k));
    k = last_k + 1;
  } else {
    // L1: the frequent items themselves (their supports are known from the
    // catalog's marginals; no counting pass is needed).
    PassStats pass;
    pass.k = 1;
    pass.num_candidates = catalog.num_items();
    std::vector<int32_t> ids(catalog.num_items());
    std::vector<uint64_t> counts(catalog.num_items());
    for (size_t i = 0; i < catalog.num_items(); ++i) {
      // Items were already generated with support >= minsup.
      ids[i] = static_cast<int32_t>(i);
      counts[i] = catalog.item_count(ids[i]);
    }
    frequent = ItemsetSet(1, ids);
    result.itemsets.AppendLevel(std::move(ids), std::move(counts));
    pass.num_frequent = frequent.size();
    pass.seconds = timer.ElapsedSeconds();
    result.passes.push_back(pass);
    // Pass 1 counts nothing (L1 supports live in the catalog), so its
    // candidate-count slot stays empty.
    if (options.collect_candidate_counts) {
      result.candidate_counts.emplace_back();
    }
    if (after_pass) QARM_RETURN_NOT_OK(after_pass(result));
    k = 2;
  }

  while (!frequent.empty() &&
         (options.max_itemset_size == 0 || k <= options.max_itemset_size)) {
    timer.Reset();
    PassStats pass;
    pass.k = k;
    // Pass 2 streams the implicit cross product of L1 (bounded chunks, no
    // 3.4M-candidate materialization); every later pass materializes its
    // join as before and wraps it in a stream view.
    ItemsetSet materialized(k);
    std::unique_ptr<CandidateStream> candidates;
    if (k == 2 && FrontierIsWholeCatalog(frequent, catalog)) {
      Timer gen_timer;
      auto pairs = std::make_unique<ImplicitPairStream>(catalog);
      pass.candgen.join_candidates = pairs->size();
      pass.candgen.peak_materialized =
          std::min(pairs->size(), ImplicitPairStream::kDefaultChunkRows);
      pass.candgen.join_seconds = gen_timer.ElapsedSeconds();
      pass.candgen.seconds = pass.candgen.join_seconds;
      candidates = std::move(pairs);
    } else {
      materialized = GenerateCandidates(catalog, frequent,
                                        options.num_threads, &pass.candgen);
      candidates = std::make_unique<ItemsetStreamView>(materialized);
    }
    pass.num_candidates = candidates->size();
    if (candidates->size() == 0) {
      pass.seconds = timer.ElapsedSeconds();
      result.itemsets.AppendLevel({}, {});
      result.passes.push_back(pass);
      if (options.collect_candidate_counts) {
        result.candidate_counts.emplace_back();
      }
      if (after_pass) QARM_RETURN_NOT_OK(after_pass(result));
      break;
    }
    QARM_ASSIGN_OR_RETURN(
        std::vector<uint32_t> counts,
        count_supports
            ? count_supports(*candidates, &pass.counting)
            : CountSupports(source, catalog, *candidates, options,
                            &pass.counting));
    if (counts.size() != candidates->size()) {
      return Status::Internal("support counts do not match candidate count");
    }

    std::vector<int32_t> level_ids;
    std::vector<uint64_t> level_counts;
    candidates->ForEachChunk([&](size_t first, const ItemsetSet& chunk) {
      for (size_t i = 0; i < chunk.size(); ++i) {
        const size_t c = first + i;
        if (counts[c] >= min_count) {
          level_ids.insert(level_ids.end(), chunk.itemset(i),
                           chunk.itemset(i) + k);
          level_counts.push_back(counts[c]);
        }
      }
    });
    pass.num_frequent = level_counts.size();
    // The next frontier is this level; it is only copied out when another
    // pass will join it.
    const bool more_passes =
        pass.num_frequent > 0 &&
        (options.max_itemset_size == 0 || k + 1 <= options.max_itemset_size);
    ItemsetSet next(k, more_passes ? level_ids : std::vector<int32_t>());
    result.itemsets.AppendLevel(std::move(level_ids), std::move(level_counts));
    pass.seconds = timer.ElapsedSeconds();
    result.passes.push_back(pass);
    if (options.collect_candidate_counts) {
      result.candidate_counts.push_back(std::move(counts));
    }
    if (after_pass) QARM_RETURN_NOT_OK(after_pass(result));
    frequent = std::move(next);
    ++k;
  }
  return result;
}

}  // namespace qarm
