#include "core/incremental_miner.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/mining_checkpoint.h"
#include "core/support_counting.h"
#include "mining/apriori.h"
#include "storage/checkpoint_format.h"
#include "storage/fault_injection.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"

namespace qarm {
namespace {

// Everything the counting hooks share across passes.
struct IncrementalState {
  const CheckpointState* base = nullptr;
  const RecordSource* source = nullptr;  // full file (fault-wrapped)
  const MinerOptions* options = nullptr;
  size_t base_blocks = 0;
  size_t total_blocks = 0;
  uint64_t base_min_count = 0;
  uint64_t cur_min_count = 0;

  const ItemCatalog* catalog = nullptr;
  // Pass k's counts can merge base + delta only while the frequent-itemset
  // frontier still matches the base run's (catalog match implies the L1 /
  // C2 match; each merged pass then re-validates the next level).
  bool frontier_matches = false;
  bool logged_divergence = false;
  size_t next_k = 2;  // counting passes arrive strictly as k = 2, 3, ...

  size_t passes_merged = 0;
  size_t passes_rescanned = 0;
};

}  // namespace

Result<MiningResult> MineIncremental(const std::string& qbt_path,
                                     const MinerOptions& options,
                                     IncrementalDecision* decision,
                                     const FullMineFn& full_mine) {
  MinerOptions opts = options;
  opts.append_mode = true;
  QARM_RETURN_NOT_OK(opts.Validate());

  IncrementalDecision local_decision;
  IncrementalDecision& dec = decision != nullptr ? *decision : local_decision;
  dec = IncrementalDecision{};

  // An append interrupted between writing its suffix and committing the
  // new row count leaves trailing uncommitted bytes; roll those back
  // before opening (a healthy file is untouched).
  Result<std::unique_ptr<QbtFileSource>> opened = QbtFileSource::Open(qbt_path);
  if (!opened.ok()) {
    QARM_RETURN_NOT_OK(RecoverQbt(qbt_path));
    opened = QbtFileSource::Open(qbt_path);
  }
  QARM_RETURN_NOT_OK(opened.status());
  std::unique_ptr<QbtFileSource> qbt = std::move(opened).value();

  const size_t total_blocks = qbt->num_blocks();
  const uint64_t total_rows = qbt->num_rows();
  dec.delta_blocks = total_blocks;
  dec.delta_rows = total_rows;

  // Fallback routes: a full (or resumed) mine of the grown file, still in
  // append mode so it leaves a fresh complete checkpoint behind. The
  // distributed path is the caller's when workers were requested.
  const auto run_full = [&]() -> Result<MiningResult> {
    if (opts.num_workers > 1 && full_mine != nullptr) {
      return full_mine(opts);
    }
    MiningHooks hooks;
    hooks.checkpoint_base = CheckpointBaseOf(*qbt);
    const QuantitativeRuleMiner miner(opts);
    return miner.MineStreamed(*qbt, hooks);
  };
  const auto fall_back = [&](std::string reason) -> Result<MiningResult> {
    dec.reason = std::move(reason);
    QARM_LOG(Info) << "incremental: full mine of '" << qbt_path
                   << "': " << dec.reason;
    return run_full();
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

  const uint64_t fingerprint = ComputeMiningFingerprint(opts, *qbt);
  const uint64_t options_fp = ComputeMiningOptionsFingerprint(opts, *qbt);

  if ((base.flags & kCheckpointFlagComplete) == 0) {
    // Mid-run progress, not a base. If it belongs to this exact file+options
    // (e.g. an incremental run was killed mid-pass) resume it normally.
    if (base.fingerprint == fingerprint) {
      dec.resumed = true;
      dec.reason = "resuming the interrupted run's mid-pass checkpoint";
      QARM_LOG(Info) << "incremental: " << dec.reason;
      return run_full();
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
  if (qbt->reader().IndexPrefixCrc(base_blocks) != base.base_index_crc) {
    return fall_back(
        "the base blocks' index entries changed — the file was rewritten, "
        "not appended to");
  }
  const uint64_t base_rows = base_blocks == total_blocks
                                 ? total_rows
                                 : qbt->block_row_begin(base_blocks);
  if (base_rows != base.num_rows) {
    return fall_back(StrFormat(
        "base blocks hold %llu rows but the checkpoint recorded %llu",
        static_cast<unsigned long long>(base_rows),
        static_cast<unsigned long long>(base.num_rows)));
  }
  if (base.catalog.value_counts.size() != qbt->num_attributes()) {
    return fall_back("base catalog does not match the file's attributes");
  }
  for (size_t a = 0; a < qbt->num_attributes(); ++a) {
    if (base.catalog.value_counts[a].size() !=
        qbt->attribute(a).domain_size()) {
      return fall_back("base catalog does not match attribute '" +
                       qbt->attribute(a).name + "'s domain");
    }
  }

  // Route A: mine the delta. All scans go through the fault-wrapped full
  // source so block-indexed fault schedules and I/O counters behave as in
  // a full mine; the wrapped options must not wrap again inside the miner.
  dec.incremental = true;
  dec.base_blocks = base_blocks;
  dec.base_rows = base_rows;
  dec.delta_blocks = total_blocks - base_blocks;
  dec.delta_rows = total_rows - base_rows;
  QARM_LOG(Info) << "incremental: base " << base_blocks << " blocks ("
                 << base_rows << " rows) + delta " << dec.delta_blocks
                 << " blocks (" << dec.delta_rows << " rows)";
  if (opts.num_workers > 1) {
    QARM_LOG(Info) << "incremental: delta passes run in-process "
                      "(--workers applies to full mines only)";
  }

  MinerOptions scan_opts = opts;
  scan_opts.inject_faults_spec.clear();
  std::unique_ptr<FaultInjectingRecordSource> faulty;
  const RecordSource* source = qbt.get();
  if (!opts.inject_faults_spec.empty()) {
    QARM_ASSIGN_OR_RETURN(FaultInjectionConfig fault_config,
                          ParseFaultSpec(opts.inject_faults_spec));
    faulty = std::make_unique<FaultInjectingRecordSource>(*qbt, fault_config);
    source = faulty.get();
  }

  IncrementalState state;
  state.base = &base;
  state.source = source;
  state.options = &scan_opts;
  state.base_blocks = base_blocks;
  state.total_blocks = total_blocks;
  state.base_min_count = MinSupportCount(opts.minsup, base_rows);
  state.cur_min_count = MinSupportCount(opts.minsup, total_rows);

  MiningHooks hooks;
  hooks.checkpoint_base = CheckpointBaseOf(*qbt);

  hooks.scan_value_counts =
      [&state](ScanIoStats* io) -> Result<std::vector<std::vector<uint64_t>>> {
    // Value counts are additive over disjoint block ranges: base counts +
    // delta counts = full-file counts, exactly.
    const BlockRangeSource delta(*state.source, state.base_blocks,
                                 state.total_blocks);
    QARM_ASSIGN_OR_RETURN(
        std::vector<std::vector<uint64_t>> counts,
        ItemCatalog::ScanValueCounts(delta, state.options->num_threads, io));
    const std::vector<std::vector<uint64_t>>& base_counts =
        state.base->catalog.value_counts;
    for (size_t a = 0; a < counts.size(); ++a) {
      for (size_t v = 0; v < counts[a].size(); ++v) {
        counts[a][v] += base_counts[a][v];
      }
    }
    return counts;
  };

  hooks.publish_catalog = [&state](const ItemCatalog& catalog,
                                   bool /*restored*/) -> Status {
    state.catalog = &catalog;
    // Identical item words (sorted (attr, lo, hi) triples) mean identical
    // item ids, hence an identical L1 and — candidate generation being
    // deterministic — identical pass-2 candidates in identical order.
    state.frontier_matches =
        catalog.Snapshot().item_words == state.base->catalog.item_words;
    if (!state.frontier_matches) {
      QARM_LOG(Info)
          << "incremental: the appended rows changed the frequent-item "
             "set; counting passes scan the full file";
      state.logged_divergence = true;
    }
    return Status::OK();
  };

  hooks.count_supports =
      [&state](const CandidateStream& candidates,
               CountingStats* stats) -> Result<std::vector<uint32_t>> {
    const size_t k = state.next_k++;
    const size_t pass_idx = k - 1;  // base.passes[0] is L1
    const bool base_has_pass =
        pass_idx < state.base->passes.size() &&
        state.base->passes[pass_idx].k == k &&
        state.base->passes[pass_idx].candidate_counts.size() ==
            candidates.size() &&
        !state.base->passes[pass_idx].candidate_counts.empty();
    if (!state.frontier_matches || !base_has_pass) {
      if (!state.logged_divergence) {
        QARM_LOG(Info) << "incremental: pass " << k
                       << " has no matching base counts; scanning the "
                          "full file from here on";
        state.logged_divergence = true;
      }
      ++state.passes_rescanned;
      return CountSupports(*state.source, *state.catalog, candidates,
                           *state.options, stats);
    }

    const BlockRangeSource delta(*state.source, state.base_blocks,
                                 state.total_blocks);
    QARM_ASSIGN_OR_RETURN(
        std::vector<uint32_t> counts,
        CountSupports(delta, *state.catalog, candidates, *state.options,
                      stats));
    const std::vector<uint32_t>& base_counts =
        state.base->passes[pass_idx].candidate_counts;
    // Merge positionally, and check whether every candidate keeps its
    // frequent/infrequent status under the grown threshold: if so, this
    // pass's frontier — and therefore the next pass's candidates — still
    // match the base run's.
    bool next_matches = true;
    for (size_t c = 0; c < counts.size(); ++c) {
      const uint64_t merged =
          static_cast<uint64_t>(counts[c]) + base_counts[c];
      counts[c] = static_cast<uint32_t>(merged);
      next_matches = next_matches &&
                     (merged >= state.cur_min_count) ==
                         (base_counts[c] >= state.base_min_count);
    }
    ++state.passes_merged;
    if (!next_matches && !state.logged_divergence) {
      QARM_LOG(Info) << "incremental: pass " << k
                     << "'s frontier diverged from the base run; later "
                        "passes scan the full file";
      state.logged_divergence = true;
    }
    state.frontier_matches = next_matches;
    return counts;
  };

  const QuantitativeRuleMiner miner(scan_opts);
  Result<MiningResult> result = miner.MineStreamed(*source, hooks);
  dec.passes_merged = state.passes_merged;
  dec.passes_rescanned = state.passes_rescanned;
  return result;
}

}  // namespace qarm
