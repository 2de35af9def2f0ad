#include "core/mining_checkpoint.h"

#include <cstring>

#include "common/hash.h"

namespace qarm {
namespace {

// Incremental SplitMix64 chaining: order-sensitive, so permuted option
// values cannot collide by accident.
class FingerprintHasher {
 public:
  void Mix(uint64_t value) { state_ = SplitMix64(state_ ^ value); }
  void MixDouble(double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = 0x51434b5054464e47ULL;  // "QCKPTFNG"
};

}  // namespace

uint64_t ComputeMiningOptionsFingerprint(const MinerOptions& options,
                                         const RecordSource& source) {
  // Only output-affecting options are mixed in. Execution knobs —
  // num_threads, num_workers, memory budgets, fault specs — are excluded
  // on purpose: counts are exact and merges happen in a fixed order, so a
  // run checkpointed at one thread/worker count resumes at any other with
  // bit-identical rules. The row count is also excluded here (it joins in
  // ComputeMiningFingerprint below): append-mode runs must be able to
  // match a checkpoint taken before rows were appended.
  FingerprintHasher h;
  h.MixDouble(options.minsup);
  h.MixDouble(options.minconf);
  h.MixDouble(options.max_support);
  h.MixDouble(options.partial_completeness);
  h.Mix(static_cast<uint64_t>(options.partition_method));
  h.Mix(options.num_intervals_override);
  h.Mix(options.max_quantitative_per_rule);
  h.MixDouble(options.interest_level);
  h.Mix(static_cast<uint64_t>(options.interest_mode));
  h.Mix(options.interest_item_prune ? 1 : 0);
  h.Mix(options.max_itemset_size);

  h.Mix(source.num_attributes());
  for (size_t a = 0; a < source.num_attributes(); ++a) {
    const MappedAttribute& attr = source.attribute(a);
    h.Mix(static_cast<uint64_t>(attr.kind));
    h.Mix(attr.domain_size());
    h.Mix(attr.partitioned ? 1 : 0);
    // Taxonomy structure changes which generalized items exist, so it is
    // part of the run's identity even though taxonomies arrive via options.
    h.Mix(attr.taxonomy_ranges.size());
    for (const Taxonomy::NodeRange& node : attr.taxonomy_ranges) {
      h.Mix(static_cast<uint64_t>(static_cast<uint32_t>(node.lo)) << 32 |
            static_cast<uint32_t>(node.hi));
    }
  }
  return h.digest();
}

uint64_t ComputeMiningFingerprint(const MinerOptions& options,
                                  const RecordSource& source) {
  FingerprintHasher h;
  h.Mix(ComputeMiningOptionsFingerprint(options, source));
  h.Mix(source.num_rows());
  return h.digest();
}

CheckpointState BuildCheckpointState(uint64_t fingerprint,
                                     const RecordSource& source,
                                     const ItemCatalog& catalog,
                                     const FrequentItemsetResult& progress) {
  CheckpointState state;
  state.fingerprint = fingerprint;
  state.num_rows = source.num_rows();
  state.num_attributes = static_cast<uint32_t>(source.num_attributes());
  state.catalog = catalog.Snapshot();

  // Level k of the store is pass k's frequent itemsets, flat and in
  // generation order — the checkpoint's own layout, so each pass is a copy
  // of the level arrays.
  QARM_CHECK_EQ(progress.itemsets.num_levels(), progress.passes.size());
  state.passes.reserve(progress.passes.size());
  for (size_t p = 0; p < progress.passes.size(); ++p) {
    CheckpointPass saved;
    saved.k = static_cast<uint32_t>(progress.passes[p].k);
    QARM_CHECK_EQ(saved.k, p + 1);
    saved.num_candidates = progress.passes[p].num_candidates;
    saved.itemsets = progress.itemsets.level_ids(p + 1);
    saved.counts = progress.itemsets.level_counts(p + 1);
    state.passes.push_back(std::move(saved));
  }
  // Full per-candidate counts (append mode) travel with the pass they
  // belong to; absent or mismatched vectors are simply not stored — the
  // checkpoint stays valid for resume, just not as an incremental base for
  // that pass.
  if (progress.candidate_counts.size() == progress.passes.size()) {
    for (size_t p = 0; p < progress.passes.size(); ++p) {
      const std::vector<uint32_t>& counts = progress.candidate_counts[p];
      if (!counts.empty() && counts.size() == progress.passes[p].num_candidates) {
        state.passes[p].candidate_counts = counts;
      }
    }
  }
  return state;
}

Status RestoreCheckpointProgress(const CheckpointState& state,
                                 const ItemCatalog& catalog,
                                 FrequentItemsetResult* progress) {
  progress->itemsets = FrequentItemsetStore();
  progress->passes.clear();
  progress->candidate_counts.clear();
  if (state.passes.empty()) {
    return Status::InvalidArgument("checkpoint records no completed passes");
  }
  const int32_t num_items = static_cast<int32_t>(catalog.num_items());
  for (size_t p = 0; p < state.passes.size(); ++p) {
    const CheckpointPass& saved = state.passes[p];
    // Levels are consecutive from 1: pass p holds the (p+1)-itemsets.
    if (saved.k != p + 1) {
      return Status::InvalidArgument(
          "checkpoint passes are not consecutive levels");
    }
    if (saved.itemsets.size() != saved.counts.size() * saved.k) {
      return Status::InvalidArgument(
          "checkpoint pass itemsets/counts out of sync");
    }
    for (int32_t id : saved.itemsets) {
      if (id < 0 || id >= num_items) {
        return Status::InvalidArgument(
            "checkpoint itemset references an unknown item");
      }
    }
    PassStats pass;
    pass.k = saved.k;
    pass.num_candidates = static_cast<size_t>(saved.num_candidates);
    pass.num_frequent = saved.counts.size();
    progress->passes.push_back(pass);
    progress->candidate_counts.push_back(saved.candidate_counts);
    progress->itemsets.AppendLevel(saved.itemsets, saved.counts);
  }
  return Status::OK();
}

}  // namespace qarm
