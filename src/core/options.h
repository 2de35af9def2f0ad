// User-facing mining options for the quantitative rule miner.
#ifndef QARM_CORE_OPTIONS_H_
#define QARM_CORE_OPTIONS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "partition/mapper.h"
#include "partition/taxonomy.h"

namespace qarm {

// Whether a rule must beat expectations on support AND confidence or on
// support OR confidence to count as interesting (Section 4: "The user can
// specify whether it should be support and confidence, or support or
// confidence").
enum class InterestMode {
  kSupportOrConfidence = 0,
  kSupportAndConfidence = 1,
};

struct MinerOptions {
  // Minimum support, as a fraction of records (Section 2).
  double minsup = 0.10;

  // Minimum confidence. With an interest level set, the paper allows
  // dropping the confidence constraint; set to 0 for that behaviour.
  double minconf = 0.50;

  // Maximum support for combined ranges (Section 1.2): adjacent
  // values/intervals stop combining once their joint support exceeds this.
  // Single values/intervals above it are still considered. 1.0 disables the
  // cap.
  double max_support = 0.40;

  // Desired partial completeness level K (> 1); with minsup it fixes the
  // number of base intervals (Equation 2).
  double partial_completeness = 2.0;

  // Base-interval construction (equi-depth is the paper's choice).
  PartitionMethod partition_method = PartitionMethod::kEquiDepth;

  // Overrides Equation 2 when > 0 (used by tests and ablations).
  size_t num_intervals_override = 0;

  // The paper's n' refinement: when no rule will involve more than this
  // many quantitative attributes, Equation 2 may use it instead of the
  // schema's quantitative-attribute count. 0 = use the schema count.
  size_t max_quantitative_per_rule = 0;

  // Interest level R (Section 4). 0 disables interest processing entirely;
  // values > 1 enable both output filtering and the Lemma 5 candidate
  // pruning (unless interest_item_prune is cleared).
  double interest_level = 0.0;

  InterestMode interest_mode = InterestMode::kSupportOrConfidence;

  // Lemma 5: drop quantitative items with support > 1/R after pass 1
  // (sound when the user wants greater-than-expected *support*; the paper
  // applies it whenever the user asks for support-and-confidence interest).
  bool interest_item_prune = true;

  // Memory budget for the n-dimensional counting arrays of one pass,
  // accounted cumulatively across super-candidates; once the running total
  // would exceed it, further super-candidates are counted by member scan
  // instead (core/support_counting.h). A grid no larger than its member
  // scan's own state is always kept dense — the scan would cost more
  // memory, not less. A
  // parallel pass gives each scan thread its own copy of every grid, so it
  // runs only as many threads as the budget holds copies (at least one).
  uint64_t counter_memory_budget_bytes = 64ull << 20;

  // Worker threads for the database scans (the pass-1 value-count scan and
  // each support-counting pass) and for the post-counting pipeline
  // (candidate generation, rule generation + decode, and interest
  // evaluation). 1 = the serial path, bit-identical to the single-threaded
  // miner; 0 = one thread per hardware core. Every parallel phase reduces
  // per-worker results in a fixed order (and counts are exact integers), so
  // outputs never depend on this setting.
  size_t num_threads = 1;

  // Worker *processes* for distributed mining over a sharded QBT file
  // (tools/qarm mine --workers=N). The coordinator forks this many workers,
  // assigns each a contiguous range of QBT blocks, and merges their
  // per-shard counts in fixed worker order, so — like num_threads — the
  // mined rules never depend on this setting. Forked workers run the TCP
  // workers' session (handshake, deadlines, heartbeats), so the
  // dist_io_timeout_ms and dist_heartbeat_ms rules apply whenever this
  // exceeds 1. 1 (or 0) = the ordinary
  // single-process path. Only the QBT-streamed entry points honour it;
  // it is an execution knob, excluded from the checkpoint fingerprint, so
  // a run checkpointed at one worker count resumes at any other.
  size_t num_workers = 1;

  // Remote worker endpoints ("HOST:PORT", repeatable --worker= on the CLI)
  // for multi-host TCP mining. Non-empty switches the distributed entry
  // point from forked workers to TCP sessions against `qarm worker`
  // servers; num_workers is ignored in that mode (one worker per endpoint,
  // capped by the block count — spare endpoints stay idle as
  // redistribution targets when a worker dies). Execution knob: the mined
  // rules are byte-identical across in-process, forked, and TCP runs.
  std::vector<std::string> worker_endpoints;

  // Per-frame read/write deadline for distributed mining (forked or TCP
  // workers), in milliseconds. Bounds every coordinator-side transport
  // operation so a vanished, silent or partitioned worker surfaces as an
  // IOError (and a relaunch) instead of a hang. Must be positive whenever
  // workers run (num_workers > 1 or worker_endpoints non-empty).
  uint64_t dist_io_timeout_ms = 30000;

  // Interval between worker liveness heartbeats while a long counting
  // pass runs, in milliseconds; must stay below dist_io_timeout_ms so a
  // healthy-but-slow worker never trips the read deadline. 0 disables
  // heartbeats (not recommended outside tests).
  uint64_t dist_heartbeat_ms = 1000;

  // Connect retry budget per TCP endpoint (attempts, with exponential
  // backoff starting at dist_connect_backoff_ms) for discovery and
  // reconnect after a worker death.
  size_t dist_connect_attempts = 10;
  double dist_connect_backoff_ms = 50.0;

  // Cap on itemset size (0 = unlimited). Useful to bound exploratory runs.
  size_t max_itemset_size = 0;

  // Upper bound on the rows per block when scanning an *in-memory* table
  // (small tables use smaller blocks so every worker still gets one). QBT
  // files carry their own block size chosen at write time; this option does
  // not re-block them.
  size_t stream_block_rows = 65536;

  // Crash safety: when non-empty, the miner writes a checkpoint (QCP file,
  // see storage/checkpoint_format.h) to this path at pass boundaries and,
  // on start, resumes from it when it is valid and matches this run's
  // fingerprint (same output-affecting options, same data shape). A
  // mismatched, corrupt, or truncated checkpoint is ignored and mining
  // restarts from scratch. The file is deleted after a successful run.
  std::string checkpoint_path;

  // Write a checkpoint after every Nth completed pass (1 = every pass).
  // The final state is always checkpointed on a clean stop regardless.
  size_t checkpoint_every_pass = 1;

  // Incremental (append) mode: on success the checkpoint is NOT deleted —
  // a final state flagged complete is written instead, so the next run over
  // the same file plus appended QBT blocks can mine only the delta (see
  // core/incremental_miner.h). Every pass's full per-candidate support
  // counts are recorded in the result (and therefore in checkpoints): that
  // is what makes a checkpoint usable as an incremental base — delta counts
  // merge into the stored counts positionally — at the cost of ~4 bytes per
  // candidate in the checkpoint. Requires checkpoint_path. Like the
  // checkpoint settings, this is an execution knob: it never changes the
  // mined rules.
  bool append_mode = false;

  // Debug/testing: stop cleanly (Status::Cancelled) after checkpointing
  // pass N, simulating a crash at that boundary. 0 = run to completion.
  size_t stop_after_pass = 0;

  // Deterministic I/O fault injection spec (see storage/fault_injection.h
  // for the grammar), applied to the record source for the whole run.
  // Empty = disabled. Testing/chaos-engineering only.
  std::string inject_faults_spec;

  // Cooperative cancellation (the CLI points this at its SIGINT flag).
  // Checked at pass boundaries: when set, the miner writes a final
  // checkpoint (if configured) and returns Status::Cancelled.
  const std::atomic<bool>* cancel_flag = nullptr;

  // Taxonomies over categorical attributes, keyed by attribute name
  // (Section 1.1 / [SA95]): interior nodes become generalized categorical
  // items that may appear in rules alongside leaf values.
  std::vector<std::pair<std::string, Taxonomy>> taxonomies;

  // Upper bound accepted for num_threads; far above any real machine, it
  // exists so a corrupted or hostile thread count cannot exhaust the
  // process with thread stacks.
  static constexpr size_t kMaxThreads = 4096;

  // Upper bound accepted for num_workers; forked processes are far more
  // expensive than threads, so the cap is correspondingly smaller.
  static constexpr size_t kMaxWorkers = 256;

  // Checks every numeric option for range and mutual consistency:
  // non-finite values (NaN/inf from a lenient parser) are rejected, minsup
  // must be in (0,1], minconf in [0,1], max_support in [0,1] and — unless 0
  // — at least minsup, partial_completeness > 1 whenever Equation 2 is in
  // effect (num_intervals_override == 0), interest_level >= 0, and
  // num_threads <= kMaxThreads (and num_workers <= kMaxWorkers). Every
  // entry point that accepts untrusted
  // options (Mine, MineStreamed, the CLI) calls this and propagates the
  // InvalidArgument instead of aborting.
  Status Validate() const;
};

}  // namespace qarm

#endif  // QARM_CORE_OPTIONS_H_
