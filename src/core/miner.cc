#include "core/miner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/interest.h"
#include "core/mining_checkpoint.h"
#include "partition/partial_completeness.h"

namespace qarm {

std::vector<QuantRule> MiningResult::InterestingRules() const {
  std::vector<QuantRule> out;
  for (const QuantRule& rule : rules) {
    if (rule.interesting) out.push_back(rule);
  }
  return out;
}

CheckpointBaseInfo CheckpointBaseOf(const QbtFileSource& qbt) {
  return CheckpointBaseInfo{
      qbt.num_blocks(), qbt.reader().IndexPrefixCrc(qbt.num_blocks())};
}

QuantitativeRuleMiner::QuantitativeRuleMiner(const MinerOptions& options)
    : options_(options) {}

Status QuantitativeRuleMiner::ValidateOptions() const {
  return options_.Validate();
}

Result<MiningResult> QuantitativeRuleMiner::Mine(const Table& table) const {
  QARM_RETURN_NOT_OK(ValidateOptions());
  Timer timer;
  MapOptions map_options;
  map_options.partial_completeness = options_.partial_completeness;
  map_options.minsup = options_.minsup;
  map_options.method = options_.partition_method;
  map_options.num_intervals_override = options_.num_intervals_override;
  map_options.max_quantitative_per_rule = options_.max_quantitative_per_rule;
  map_options.taxonomies = options_.taxonomies;
  QARM_ASSIGN_OR_RETURN(MappedTable mapped, MapTable(table, map_options));
  double map_seconds = timer.ElapsedSeconds();
  QARM_ASSIGN_OR_RETURN(MiningResult result, MineMapped(std::move(mapped)));
  result.stats.map_seconds = map_seconds;
  result.stats.total_seconds += map_seconds;
  return result;
}

Result<MiningResult> QuantitativeRuleMiner::MineMapped(
    MappedTable mapped) const {
  QARM_RETURN_NOT_OK(ValidateOptions());
  MiningResult result(std::move(mapped));
  // The scan source wraps the table owned by the result, so the reference
  // stays valid for the whole run.
  const MappedTableSource source(
      result.mapped, PickBlockRows(result.mapped.num_rows(),
                                   ResolveNumThreads(options_.num_threads),
                                   options_.stream_block_rows));
  QARM_RETURN_NOT_OK(MineWithSource(source, &result));
  return result;
}

Result<MiningResult> QuantitativeRuleMiner::MineStreamed(
    const RecordSource& source) const {
  return MineStreamed(source, MiningHooks());
}

Result<MiningResult> QuantitativeRuleMiner::MineStreamed(
    const RecordSource& source, const MiningHooks& hooks) const {
  QARM_RETURN_NOT_OK(ValidateOptions());
  // The result's table holds only the decode metadata; the records stay in
  // the source and stream through each pass.
  MiningResult result(MappedTable(source.attributes(), /*num_rows=*/0));
  QARM_RETURN_NOT_OK(MineWithSource(source, &result, hooks));
  return result;
}

Status QuantitativeRuleMiner::MineWithSource(const RecordSource& source,
                                             MiningResult* result,
                                             const MiningHooks& hooks) const {
  Timer total_timer;
  Timer timer;
  MiningStats& stats = result->stats;

  // Every read of records goes through one scan, over the blocks the
  // policy picks; with no scan given it is this process's, which also
  // applies the run's fault injection.
  std::unique_ptr<LocalRecordScan> local_scan;
  RecordScan* scan = hooks.scan;
  if (scan == nullptr) {
    QARM_ASSIGN_OR_RETURN(local_scan, LocalRecordScan::Open(source, options_));
    scan = local_scan.get();
  }
  ScanPolicy full_mine;
  ScanPolicy& policy = hooks.policy != nullptr ? *hooks.policy : full_mine;
  const IndexRange all_blocks{0, source.num_blocks()};

  const size_t num_rows = source.num_rows();
  stats.num_records = num_rows;
  stats.num_threads = ResolveNumThreads(options_.num_threads);

  const bool checkpointing = !options_.checkpoint_path.empty();
  stats.checkpoint.enabled = checkpointing;
  const uint64_t fingerprint =
      checkpointing ? ComputeMiningFingerprint(options_, source) : 0;
  const uint64_t options_fp =
      checkpointing ? ComputeMiningOptionsFingerprint(options_, source) : 0;
  // Every checkpoint this run writes carries the incremental-base identity
  // (zero for non-QBT runs) so a later `mine --append` can validate it.
  auto stamp_base = [&](CheckpointState* state) {
    state->options_fingerprint = options_fp;
    state->base_num_blocks = hooks.checkpoint_base.num_blocks;
    state->base_index_crc = hooks.checkpoint_base.index_crc;
  };

  // Step 3a: frequent items — restored from a valid checkpoint of this
  // exact run when one exists, otherwise built by the pass-1 scan. Any
  // problem with the checkpoint (corrupt, truncated, different run) only
  // costs the resume: mining restarts from scratch with a warning.
  std::optional<ItemCatalog> catalog;
  FrequentItemsetResult resume_progress;
  bool resumed = false;
  if (checkpointing) {
    Result<CheckpointState> loaded =
        ReadCheckpoint(options_.checkpoint_path);
    if (loaded.ok()) {
      if (loaded->fingerprint != fingerprint) {
        if (options_.append_mode &&
            (loaded->flags & kCheckpointFlagComplete) != 0) {
          // Expected in append mode: the complete checkpoint of the
          // pre-append run is the incremental *base* (consumed by
          // MineIncremental's scan policy), not a resume point for this run.
          QARM_LOG(Info) << "append mode: checkpoint '"
                         << options_.checkpoint_path
                         << "' is a completed prior run; mining the grown "
                            "file fresh";
        } else {
          QARM_LOG(Warning)
              << "ignoring checkpoint '" << options_.checkpoint_path
              << "': it belongs to a different run (options or data "
                 "changed); restarting from scratch";
        }
      } else if (options_.append_mode &&
                 (loaded->flags & kCheckpointFlagComplete) != 0) {
        // Same fingerprint AND complete: nothing was appended since the
        // checkpointed run. Re-mine rather than "resume" into a no-op —
        // the caller asked for a mine, and the result must not depend on
        // stale terminal state.
        QARM_LOG(Info) << "append mode: checkpoint '"
                       << options_.checkpoint_path
                       << "' already covers this data; re-mining";
      } else {
        Result<ItemCatalog> restored =
            ItemCatalog::Restore(source, loaded->catalog);
        Status progress_status =
            restored.ok() ? RestoreCheckpointProgress(*loaded, *restored,
                                                      &resume_progress)
                          : restored.status();
        if (progress_status.ok()) {
          catalog.emplace(std::move(restored).value());
          resumed = true;
          stats.checkpoint.resumed = true;
          stats.checkpoint.resumed_passes = resume_progress.passes.size();
          QARM_LOG(Info) << "resuming from checkpoint '"
                         << options_.checkpoint_path << "' after pass "
                         << resume_progress.passes.back().k;
        } else {
          QARM_LOG(Warning)
              << "ignoring checkpoint '" << options_.checkpoint_path
              << "': " << progress_status.ToString()
              << "; restarting from scratch";
        }
      }
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      QARM_LOG(Warning) << "ignoring checkpoint '"
                        << options_.checkpoint_path
                        << "': " << loaded.status().ToString()
                        << "; restarting from scratch";
    }
  }
  if (!catalog.has_value()) {
    QARM_ASSIGN_OR_RETURN(
        ValueCounts value_counts,
        scan->ScanValueCounts(policy.ValueCountBlocks(all_blocks),
                              &stats.pass1_io));
    policy.AddValueCounts(&value_counts);
    QARM_ASSIGN_OR_RETURN(ItemCatalog built,
                          ItemCatalog::BuildFromValueCounts(
                              source, options_, std::move(value_counts)));
    catalog.emplace(std::move(built));
  }
  QARM_RETURN_NOT_OK(scan->PublishCatalog(*catalog));
  policy.UseCatalog(*catalog);
  stats.num_frequent_items = catalog->num_items();
  stats.items_pruned_by_interest = catalog->items_pruned_by_interest();
  stats.pass1_seconds = timer.ElapsedSeconds();

  // Achieved partial completeness (Equation 1) from the realized partitions.
  {
    size_t n_quant = options_.max_quantitative_per_rule > 0
                         ? options_.max_quantitative_per_rule
                         : result->mapped.num_quantitative();
    double max_support = 0.0;
    for (size_t a = 0; a < source.num_attributes(); ++a) {
      const MappedAttribute& attr = source.attribute(a);
      if (attr.kind != AttributeKind::kQuantitative || !attr.partitioned) {
        continue;
      }
      const std::vector<uint64_t>& counts = catalog->value_counts(a);
      std::vector<size_t> size_counts(counts.begin(), counts.end());
      max_support = std::max(
          max_support, MaxMultiValueIntervalSupport(attr.intervals,
                                                    size_counts,
                                                    num_rows));
    }
    stats.achieved_partial_completeness =
        max_support == 0.0
            ? 1.0
            : AchievedPartialCompleteness(max_support, n_quant,
                                          options_.minsup);
  }

  // Step 3b: frequent itemsets, checkpointing at pass boundaries.
  timer.Reset();
  AfterPassFn after_pass;
  if (checkpointing || options_.stop_after_pass > 0 ||
      options_.cancel_flag != nullptr) {
    after_pass = [&](const FrequentItemsetResult& progress) -> Status {
      const size_t k = progress.passes.back().k;
      const bool cancelled =
          options_.cancel_flag != nullptr &&
          options_.cancel_flag->load(std::memory_order_relaxed);
      const bool stop_here =
          options_.stop_after_pass > 0 && k >= options_.stop_after_pass;
      // Cancellation still checkpoints first, so an interrupted run loses
      // no completed pass.
      if (checkpointing &&
          (cancelled || stop_here ||
           k % options_.checkpoint_every_pass == 0)) {
        Timer write_timer;
        CheckpointState state =
            BuildCheckpointState(fingerprint, source, *catalog, progress);
        stamp_base(&state);
        uint64_t bytes = 0;
        const Status written =
            WriteCheckpoint(state, options_.checkpoint_path, &bytes);
        if (written.ok()) {
          ++stats.checkpoint.checkpoints_written;
          stats.checkpoint.last_checkpoint_bytes = bytes;
        } else {
          // Graceful degradation: a failed checkpoint write must not kill
          // a healthy mining run — it only loses this resume point.
          QARM_LOG(Warning)
              << "checkpoint write to '" << options_.checkpoint_path
              << "' failed: " << written.ToString()
              << "; mining continues without it";
        }
        stats.checkpoint.write_seconds += write_timer.ElapsedSeconds();
      }
      if (cancelled) {
        return Status::Cancelled(
            StrFormat("mining interrupted after pass %zu", k));
      }
      if (stop_here) {
        return Status::Cancelled(
            StrFormat("mining stopped after pass %zu (stop_after_pass)",
                      k));
      }
      return Status::OK();
    };
  }
  // Each pass: plan here, scan the policy's blocks through the scan,
  // reduce here, then add what the policy adds.
  const CountSupportsFn count_supports =
      [&](const CandidateStream& candidates,
          CountingStats* counting) -> Result<std::vector<uint32_t>> {
    const IndexRange blocks = policy.CountBlocks(candidates, all_blocks);
    QARM_ASSIGN_OR_RETURN(
        std::vector<uint32_t> counts,
        CountSupports(
            source, *catalog, candidates, options_,
            [&](const CountPlan& plan, CountingStats* scan_stats) {
              return scan->ScanCounters(plan, blocks, scan_stats);
            },
            counting));
    policy.AddCounts(candidates, &counts);
    return counts;
  };
  QARM_ASSIGN_OR_RETURN(
      FrequentItemsetResult frequent,
      MineFrequentItemsets(source, *catalog, options_,
                           resumed ? &resume_progress : nullptr, after_pass,
                           count_supports));
  stats.passes = frequent.passes;
  stats.itemset_seconds = timer.ElapsedSeconds();
  for (const PassStats& pass : frequent.passes) {
    stats.candgen_seconds += pass.candgen.seconds;
    stats.candgen_threads_used =
        std::max(stats.candgen_threads_used, pass.candgen.threads_used);
  }

  // Step 4: rules.
  timer.Reset();
  result->rules =
      GenerateQuantRules(frequent.itemsets, *catalog, num_rows,
                         options_.minconf, options_.num_threads,
                         &stats.rulegen_threads_used);
  stats.num_rules = result->rules.size();
  stats.rulegen_seconds = timer.ElapsedSeconds();

  // Step 5: interest.
  timer.Reset();
  if (options_.interest_level > 0.0) {
    InterestEvaluator evaluator(&*catalog, &frequent.itemsets,
                                options_.interest_level,
                                options_.interest_mode);
    evaluator.EvaluateRules(&result->rules, options_.num_threads,
                            &stats.interest_threads_used);
  }
  stats.num_interesting_rules = 0;
  for (const QuantRule& rule : result->rules) {
    if (rule.interesting) ++stats.num_interesting_rules;
  }
  stats.interest_seconds = timer.ElapsedSeconds();

  // Decode the frequent itemsets for the caller. Each decode is independent
  // and index-addressed, so sharding the range cannot change the output.
  const FrequentItemsetStore& store = frequent.itemsets;
  result->frequent_itemsets.resize(store.size());
  const double n = static_cast<double>(num_rows);
  auto decode_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const FrequentItemsetStore::Ref f = store.at(i);
      FrequentRangeItemset& decoded = result->frequent_itemsets[i];
      decoded.items = catalog->Decode(f.ids, f.k);
      decoded.count = f.count;
      decoded.support = n > 0 ? static_cast<double>(f.count) / n : 0.0;
    }
  };
  constexpr size_t kMinParallelDecodes = 512;
  const size_t decode_threads =
      store.size() >= kMinParallelDecodes ? stats.num_threads : 1;
  if (decode_threads <= 1) {
    decode_range(0, store.size());
  } else {
    const std::vector<IndexRange> shards =
        SplitRange(store.size(), decode_threads);
    ThreadPool pool(decode_threads);
    pool.ParallelFor(shards.size(), [&](size_t s) {
      decode_range(shards[s].begin, shards[s].end);
    });
  }

  // The run completed. Ordinarily the checkpoint has served its purpose,
  // and leaving it behind would make a future run with the same flags
  // "resume" into an instant no-op instead of mining fresh data. In append
  // mode the opposite holds: the final state — flagged complete, with full
  // per-candidate counts — IS the product that lets the next run mine only
  // the appended blocks, so it is written out instead of deleted.
  if (checkpointing) {
    if (options_.append_mode) {
      Timer write_timer;
      CheckpointState state =
          BuildCheckpointState(fingerprint, source, *catalog, frequent);
      state.flags |= kCheckpointFlagComplete;
      stamp_base(&state);
      uint64_t bytes = 0;
      const Status written =
          WriteCheckpoint(state, options_.checkpoint_path, &bytes);
      if (written.ok()) {
        ++stats.checkpoint.checkpoints_written;
        stats.checkpoint.last_checkpoint_bytes = bytes;
      } else {
        QARM_LOG(Warning)
            << "final checkpoint write to '" << options_.checkpoint_path
            << "' failed: " << written.ToString()
            << "; the next run cannot mine incrementally";
      }
      stats.checkpoint.write_seconds += write_timer.ElapsedSeconds();
    } else {
      std::remove(options_.checkpoint_path.c_str());
    }
  }

  stats.total_seconds = total_timer.ElapsedSeconds();
  return Status::OK();
}

}  // namespace qarm
