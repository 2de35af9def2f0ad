// QuantitativeRuleMiner — the public facade implementing the paper's
// five-step decomposition (Section 2.1):
//   1. choose the number of partitions per quantitative attribute,
//   2. map values/intervals to consecutive integers,
//   3. find frequent items and frequent itemsets,
//   4. generate rules,
//   5. mark the interesting rules.
//
// Typical use:
//   MinerOptions options;
//   options.minsup = 0.4; options.minconf = 0.5;
//   QuantitativeRuleMiner miner(options);
//   Result<MiningResult> result = miner.Mine(table);
//   for (const QuantRule& r : result->rules)
//     std::cout << RuleToString(r, result->mapped) << "\n";
#ifndef QARM_CORE_MINER_H_
#define QARM_CORE_MINER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "core/apriori_quant.h"
#include "core/mining_checkpoint.h"
#include "core/options.h"
#include "core/record_scan.h"
#include "core/rules.h"
#include "partition/mapped_table.h"
#include "table/table.h"

namespace qarm {

// A frequent itemset decoded to explicit ranges.
struct FrequentRangeItemset {
  RangeItemset items;
  uint64_t count = 0;
  double support = 0.0;
};

// Per-pass coordinator-side accounting of one distributed counting
// exchange (pass 1's value-count scan appears as k == 1).
struct DistPassStats {
  size_t k = 0;
  uint64_t bytes_sent = 0;      // coordinator -> workers, framed
  uint64_t bytes_received = 0;  // workers -> coordinator, framed
  double exchange_seconds = 0.0;  // send requests + await all replies
  double merge_seconds = 0.0;     // fixed-order merge of shard counts

  static void Fields(auto&& f, auto&... s) {
    f("k", s.k...);
    f("bytes_sent", s.bytes_sent...);
    f("bytes_received", s.bytes_received...);
    f("exchange_seconds", s.exchange_seconds...);
    f("merge_seconds", s.merge_seconds...);
  }
};

// Per-worker robustness accounting for one distributed run. Every worker
// counts its re-established sessions (reconnects) and the liveness traffic
// seen on its channel; forked workers have an empty endpoint and also
// count the re-forks behind those sessions, TCP workers how many
// reconnects redistributed the shard to a different endpoint.
struct DistWorkerStats {
  uint32_t worker_id = 0;
  std::string endpoint;           // "" in fork mode, HOST:PORT over TCP
  size_t respawns = 0;            // fork-mode re-forks of this worker
  size_t reconnects = 0;          // sessions re-established (either mode)
  size_t redistributed = 0;       // reconnects that moved endpoints
  size_t heartbeats = 0;          // liveness frames seen awaiting replies
  size_t heartbeat_timeouts = 0;  // read deadlines that declared it dead
  size_t frames_retried = 0;      // request/catalog frames resent in replay
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;

  static void Fields(auto&& f, auto&... s) {
    f("worker_id", s.worker_id...);
    f("endpoint", s.endpoint...);
    f("respawns", s.respawns...);
    f("reconnects", s.reconnects...);
    f("redistributed", s.redistributed...);
    f("heartbeats", s.heartbeats...);
    f("heartbeat_timeouts", s.heartbeat_timeouts...);
    f("frames_retried", s.frames_retried...);
    f("bytes_sent", s.bytes_sent...);
    f("bytes_received", s.bytes_received...);
  }
};

// Distributed-run statistics (num_workers == 0 for ordinary runs).
struct DistRunStats {
  size_t num_workers = 0;
  size_t workers_respawned = 0;
  std::vector<DistPassStats> passes;
  std::vector<DistWorkerStats> workers;

  // JSON only, and `workers` only when there are some.
  static void Fields(auto&& f, auto& s) {
    f("num_workers", s.num_workers);
    f("workers_respawned", s.workers_respawned);
    f("passes", s.passes);
    if (!s.workers.empty()) f("workers", s.workers);
  }
};

// Aggregate run statistics.
struct MiningStats {
  size_t num_records = 0;
  // Scan parallelism of this run (the resolved num_threads option).
  size_t num_threads = 1;
  size_t num_frequent_items = 0;
  size_t items_pruned_by_interest = 0;
  // Partial completeness achieved by the realized partitioning (Equation 1);
  // 1.0 when nothing was partitioned.
  double achieved_partial_completeness = 1.0;
  std::vector<PassStats> passes;
  size_t num_rules = 0;
  size_t num_interesting_rules = 0;
  // I/O of the pass-1 catalog scan (per-pass counting I/O lives in
  // passes[k].counting.io). Zero for in-memory runs.
  ScanIoStats pass1_io;
  // Checkpoint activity (writes, resume) of this run.
  CheckpointRunStats checkpoint;
  double map_seconds = 0.0;
  double pass1_seconds = 0.0;
  double itemset_seconds = 0.0;
  // Candidate generation time summed over all passes (also available
  // per pass in passes[k].candgen); itemset_seconds includes it.
  double candgen_seconds = 0.0;
  double rulegen_seconds = 0.0;
  double interest_seconds = 0.0;
  double total_seconds = 0.0;
  // Parallelism actually applied per post-counting phase: 1 when the phase
  // fell back to the serial path (too little work to shard), otherwise the
  // resolved worker count. Counting-phase parallelism is per pass, in
  // passes[k].counting.threads_used.
  size_t candgen_threads_used = 1;
  size_t rulegen_threads_used = 1;
  size_t interest_threads_used = 1;
  // Distributed-mode accounting (empty unless --workers > 1).
  DistRunStats dist;

  // The --stats JSON; `distributed` only for distributed runs.
  static void Fields(auto&& f, auto& s) {
    f("num_records", s.num_records);
    f("num_threads", s.num_threads);
    f("num_frequent_items", s.num_frequent_items);
    f("items_pruned_by_interest", s.items_pruned_by_interest);
    f("achieved_partial_completeness", s.achieved_partial_completeness);
    f("num_rules", s.num_rules);
    f("num_interesting_rules", s.num_interesting_rules);
    f("total_seconds", s.total_seconds);
    f("map_seconds", s.map_seconds);
    f("pass1_seconds", s.pass1_seconds);
    f("itemset_seconds", s.itemset_seconds);
    f("candgen_seconds", s.candgen_seconds);
    f("rulegen_seconds", s.rulegen_seconds);
    f("interest_seconds", s.interest_seconds);
    f("candgen_threads_used", s.candgen_threads_used);
    f("rulegen_threads_used", s.rulegen_threads_used);
    f("interest_threads_used", s.interest_threads_used);
    f("pass1_io", s.pass1_io);
    f("checkpoint", s.checkpoint);
    f("passes", s.passes);
    if (s.dist.num_workers > 0) f("distributed", s.dist);
  }
};

// Everything a mining run produces. `mapped` carries the decode metadata
// that renders rules back into raw attribute values.
struct MiningResult {
  MappedTable mapped;
  std::vector<FrequentRangeItemset> frequent_itemsets;
  std::vector<QuantRule> rules;  // every rule; check rule.interesting
  MiningStats stats;

  explicit MiningResult(MappedTable m) : mapped(std::move(m)) {}

  // The rules flagged interesting (all rules when no interest level is set).
  std::vector<QuantRule> InterestingRules() const;
};

// Identity of the QBT file backing a run, stamped into every checkpoint
// the run writes so a later `mine --append` can verify that the file it
// sees is the checkpointed file plus appended blocks (appends never
// rewrite existing bytes, so the index prefix CRC is stable).
struct CheckpointBaseInfo {
  uint64_t num_blocks = 0;  // 0 = not a QBT-backed run; fields stay unset
  uint32_t index_crc = 0;   // QbtReader::IndexPrefixCrc(num_blocks)
};

// The identity of `qbt` as it is now: all of its blocks.
CheckpointBaseInfo CheckpointBaseOf(const QbtFileSource& qbt);

// What a driver sets about a run's record scans, while the miner keeps
// running everything else — planning and reducing each pass,
// checkpointing, rule generation, interest, decode — unchanged.
struct MiningHooks {
  // The scan every read of records goes through (core/record_scan.h):
  // null is the in-process LocalRecordScan over the run's source; the
  // distributed entry passes its worker pool.
  RecordScan* scan = nullptr;

  // Which blocks each scan covers and what is added to its counts: null
  // is every block, nothing added; the incremental driver passes its own.
  ScanPolicy* policy = nullptr;

  // Base-file identity recorded in checkpoints (see CheckpointBaseInfo).
  // Left zero for non-QBT runs; drivers that mine a QBT file in append
  // mode fill it so the resulting checkpoints can seed incremental runs.
  CheckpointBaseInfo checkpoint_base;
};

class QuantitativeRuleMiner {
 public:
  explicit QuantitativeRuleMiner(const MinerOptions& options);

  const MinerOptions& options() const { return options_; }

  // Steps 1-5 end to end.
  Result<MiningResult> Mine(const Table& table) const;

  // Steps 3-5 on an already-mapped table (ownership of `mapped` moves into
  // the result). Fails on invalid options, a cancelled run (SIGINT or
  // stop_after_pass — Status::Cancelled), or a failing block read when
  // fault injection is active.
  Result<MiningResult> MineMapped(MappedTable mapped) const;

  // Steps 3-5 streaming block-by-block over `source` (e.g. a QbtFileSource
  // of a larger-than-RAM table). The result's `mapped` table carries only
  // the decode metadata (zero rows); rules and itemsets are bit-identical
  // to an in-memory run over the same records. Fails on invalid options or
  // a failing block read (e.g. a QBT checksum mismatch).
  Result<MiningResult> MineStreamed(const RecordSource& source) const;

  // MineStreamed with its record scans set by `hooks` (distributed and
  // incremental mining). `source` still supplies the schema, row count,
  // and checkpoint fingerprint; with a distributed scan the coordinator
  // never reads a data block itself.
  Result<MiningResult> MineStreamed(const RecordSource& source,
                                    const MiningHooks& hooks) const;

 private:
  Status ValidateOptions() const;
  // Shared steps 3-5 driver; scans go through the hooks' scan (or the
  // in-process scan over `source`), stats/output land in `result` (whose
  // `mapped` member only provides decode metadata here).
  Status MineWithSource(const RecordSource& source, MiningResult* result,
                        const MiningHooks& hooks = MiningHooks()) const;

  MinerOptions options_;
};

}  // namespace qarm

#endif  // QARM_CORE_MINER_H_
