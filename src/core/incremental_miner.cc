#include "core/incremental_miner.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/mining_checkpoint.h"
#include "mining/apriori.h"
#include "storage/checkpoint_format.h"
#include "storage/qbt_writer.h"

namespace qarm {
namespace {

// Route A's scans: pass 1 and every pass whose base counts still apply
// scan only the appended blocks and add the base run's counts; a pass past
// the point where the frequent-itemset frontier diverged from the base
// run's scans the whole file.
class DeltaPolicy : public ScanPolicy {
 public:
  DeltaPolicy(const CheckpointState& base, size_t base_blocks,
              uint64_t base_rows, uint64_t total_rows, double minsup)
      : base_(base),
        base_blocks_(base_blocks),
        base_min_count_(MinSupportCount(minsup, base_rows)),
        cur_min_count_(MinSupportCount(minsup, total_rows)) {}

  size_t passes_merged() const { return passes_merged_; }
  size_t passes_rescanned() const { return passes_rescanned_; }

  IndexRange ValueCountBlocks(IndexRange all) override {
    return {base_blocks_, all.end};
  }

  // Value counts are additive over disjoint block ranges: base counts +
  // delta counts = full-file counts, exactly.
  void AddValueCounts(ValueCounts* counts) override {
    const ValueCounts& base_counts = base_.catalog.value_counts;
    for (size_t a = 0; a < counts->size(); ++a) {
      for (size_t v = 0; v < (*counts)[a].size(); ++v) {
        (*counts)[a][v] += base_counts[a][v];
      }
    }
  }

  // Identical item words (sorted (attr, lo, hi) triples) mean identical
  // item ids, hence an identical L1 and — candidate generation being
  // deterministic — identical pass-2 candidates in identical order.
  void UseCatalog(const ItemCatalog& catalog) override {
    frontier_matches_ =
        catalog.Snapshot().item_words == base_.catalog.item_words;
    if (!frontier_matches_) {
      QARM_LOG(Info)
          << "incremental: the appended rows changed the frequent-item "
             "set; counting passes scan the full file";
      logged_divergence_ = true;
    }
  }

  IndexRange CountBlocks(const CandidateStream& candidates,
                         IndexRange all) override {
    const size_t k = candidates.k();
    const size_t pass_idx = k - 1;  // base.passes[0] is L1
    merge_ = frontier_matches_ && pass_idx < base_.passes.size() &&
             base_.passes[pass_idx].k == k &&
             base_.passes[pass_idx].candidate_counts.size() ==
                 candidates.size() &&
             !base_.passes[pass_idx].candidate_counts.empty();
    if (merge_) {
      base_counts_ = &base_.passes[pass_idx].candidate_counts;
      return {base_blocks_, all.end};
    }
    if (!logged_divergence_) {
      QARM_LOG(Info) << "incremental: pass " << k
                     << " has no matching base counts; scanning the full "
                        "file from here on";
      logged_divergence_ = true;
    }
    ++passes_rescanned_;
    return all;
  }

  // Merges positionally, and checks whether every candidate keeps its
  // frequent/infrequent status under the grown threshold: if so, this
  // pass's frontier — and therefore the next pass's candidates — still
  // match the base run's.
  void AddCounts(const CandidateStream& candidates,
                 std::vector<uint32_t>* counts) override {
    if (!merge_) return;
    const std::vector<uint32_t>& base_counts = *base_counts_;
    bool next_matches = true;
    for (size_t c = 0; c < counts->size(); ++c) {
      const uint64_t merged =
          static_cast<uint64_t>((*counts)[c]) + base_counts[c];
      (*counts)[c] = static_cast<uint32_t>(merged);
      next_matches = next_matches && (merged >= cur_min_count_) ==
                                         (base_counts[c] >= base_min_count_);
    }
    ++passes_merged_;
    if (!next_matches && !logged_divergence_) {
      QARM_LOG(Info) << "incremental: pass " << candidates.k()
                     << "'s frontier diverged from the base run; later "
                        "passes scan the full file";
      logged_divergence_ = true;
    }
    frontier_matches_ = next_matches;
  }

 private:
  const CheckpointState& base_;
  const size_t base_blocks_;
  const uint64_t base_min_count_;
  const uint64_t cur_min_count_;
  // Pass k's counts can merge base + delta only while the frequent-itemset
  // frontier still matches the base run's (catalog match implies the L1 /
  // C2 match; each merged pass then re-validates the next level).
  bool frontier_matches_ = false;
  bool logged_divergence_ = false;
  // The pass in flight: whether it merges, and the base counts it adds.
  bool merge_ = false;
  const std::vector<uint32_t>* base_counts_ = nullptr;
  size_t passes_merged_ = 0;
  size_t passes_rescanned_ = 0;
};

}  // namespace

Result<std::unique_ptr<QbtFileSource>> OpenAppendedQbt(
    const std::string& qbt_path) {
  Result<std::unique_ptr<QbtFileSource>> opened = QbtFileSource::Open(qbt_path);
  if (opened.ok()) return opened;
  QARM_RETURN_NOT_OK(RecoverQbt(qbt_path));
  return QbtFileSource::Open(qbt_path);
}

Result<MiningResult> MineIncremental(const std::string& qbt_path,
                                     const MinerOptions& options,
                                     IncrementalDecision* decision) {
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<QbtFileSource> qbt,
                        OpenAppendedQbt(qbt_path));
  return MineIncremental(*qbt, options, /*scan=*/nullptr, decision);
}

Result<MiningResult> MineIncremental(const QbtFileSource& qbt,
                                     const MinerOptions& options,
                                     RecordScan* scan,
                                     IncrementalDecision* decision) {
  MinerOptions opts = options;
  opts.append_mode = true;
  QARM_RETURN_NOT_OK(opts.Validate());

  IncrementalDecision local_decision;
  IncrementalDecision& dec = decision != nullptr ? *decision : local_decision;
  dec = IncrementalDecision{};

  const size_t total_blocks = qbt.num_blocks();
  const uint64_t total_rows = qbt.num_rows();
  dec.delta_blocks = total_blocks;
  dec.delta_rows = total_rows;

  const QuantitativeRuleMiner miner(opts);
  MiningHooks hooks;
  hooks.scan = scan;
  hooks.checkpoint_base = CheckpointBaseOf(qbt);
  // Fallback routes: a full (or resumed) mine of the grown file, still in
  // append mode so it leaves a fresh complete checkpoint behind.
  const auto fall_back = [&](std::string reason) -> Result<MiningResult> {
    dec.reason = std::move(reason);
    QARM_LOG(Info) << "incremental: full mine: " << dec.reason;
    return miner.MineStreamed(qbt, hooks);
  };

  Result<CheckpointState> loaded = ReadCheckpoint(opts.checkpoint_path);
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      return fall_back("no checkpoint at '" + opts.checkpoint_path +
                       "' (first run over this file?)");
    }
    return fall_back("checkpoint '" + opts.checkpoint_path +
                     "' unreadable: " + loaded.status().ToString());
  }
  const CheckpointState& base = *loaded;

  const uint64_t fingerprint = ComputeMiningFingerprint(opts, qbt);
  const uint64_t options_fp = ComputeMiningOptionsFingerprint(opts, qbt);

  if ((base.flags & kCheckpointFlagComplete) == 0) {
    // Mid-run progress, not a base. If it belongs to this exact file+options
    // (e.g. an incremental run was killed mid-pass) resume it normally.
    if (base.fingerprint == fingerprint) {
      dec.resumed = true;
      dec.reason = "resuming the interrupted run's mid-pass checkpoint";
      QARM_LOG(Info) << "incremental: " << dec.reason;
      return miner.MineStreamed(qbt, hooks);
    }
    return fall_back(
        "checkpoint is mid-run progress of a different run (options or "
        "data changed)");
  }
  if (base.options_fingerprint != options_fp) {
    return fall_back(
        "options or partitioning changed since the base run; base counts "
        "are not comparable");
  }
  if (base.base_num_blocks == 0) {
    return fall_back(
        "base checkpoint does not record a QBT block range (pre-append "
        "format or non-QBT run)");
  }
  if (base.base_num_blocks > total_blocks) {
    return fall_back(StrFormat(
        "file has %zu blocks but the base covered %llu — the file shrank",
        total_blocks, static_cast<unsigned long long>(base.base_num_blocks)));
  }
  const size_t base_blocks = static_cast<size_t>(base.base_num_blocks);
  if (qbt.reader().IndexPrefixCrc(base_blocks) != base.base_index_crc) {
    return fall_back(
        "the base blocks' index entries changed — the file was rewritten, "
        "not appended to");
  }
  const uint64_t base_rows = base_blocks == total_blocks
                                 ? total_rows
                                 : qbt.block_row_begin(base_blocks);
  if (base_rows != base.num_rows) {
    return fall_back(StrFormat(
        "base blocks hold %llu rows but the checkpoint recorded %llu",
        static_cast<unsigned long long>(base_rows),
        static_cast<unsigned long long>(base.num_rows)));
  }
  if (base.catalog.value_counts.size() != qbt.num_attributes()) {
    return fall_back("base catalog does not match the file's attributes");
  }
  for (size_t a = 0; a < qbt.num_attributes(); ++a) {
    if (base.catalog.value_counts[a].size() !=
        qbt.attribute(a).domain_size()) {
      return fall_back("base catalog does not match attribute '" +
                       qbt.attribute(a).name + "'s domain");
    }
  }

  // Route A: mine the delta on top of the base counts.
  dec.incremental = true;
  dec.base_blocks = base_blocks;
  dec.base_rows = base_rows;
  dec.delta_blocks = total_blocks - base_blocks;
  dec.delta_rows = total_rows - base_rows;
  QARM_LOG(Info) << "incremental: base " << base_blocks << " blocks ("
                 << base_rows << " rows) + delta " << dec.delta_blocks
                 << " blocks (" << dec.delta_rows << " rows)";
  DeltaPolicy policy(base, base_blocks, base_rows, total_rows, opts.minsup);
  hooks.policy = &policy;
  Result<MiningResult> result = miner.MineStreamed(qbt, hooks);
  dec.passes_merged = policy.passes_merged();
  dec.passes_rescanned = policy.passes_rescanned();
  return result;
}

}  // namespace qarm
