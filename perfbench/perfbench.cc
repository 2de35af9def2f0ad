// perfbench — the repository benchmark. One process runs one workload once:
// set up its inputs from the seed, run warm-up ops, run a fixed number of
// timed ops (each one output-checked), and print the metrics as one JSON
// object on the last line of stdout. perfbench/run.py builds this binary
// and forwards its arguments; see perfbench/README.md for the workloads,
// the metrics and the layer each traced metric is expected to move.
//
//   perfbench --workload mine_scan|mine_dense|mine_dist|serve_mixed
//             --seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same ops
// untraced and then traced through spans recorded around each layer call,
// prints the per-layer metrics, and writes the spans as Chrome trace JSON.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu_dispatch.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/apriori_quant.h"
#include "core/interest.h"
#include "core/miner.h"
#include "core/report.h"
#include "core/rules_export.h"
#include "dist/dist_miner.h"
#include "partition/mapper.h"
#include "perfbench/trace.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/rule_catalog.h"
#include "serve/rule_service.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "table/datagen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace qarm;

// ---------------------------------------------------------------------------
// Workload definitions.

// One mining configuration (Section 6's financial table, Fig. 9 supports).
struct MiningSpec {
  size_t rows;
  double minsup;
  double maxsup;
  double k;  // partial completeness level
  double minconf;
  double interest;
  size_t intervals;     // num_intervals_override (0 = Equation 2)
  uint32_t block_rows;  // QBT rows per block (0 = in-memory workload)
};

struct Workload {
  const char* name;
  MiningSpec spec;
  // Timed ops per second of --seconds on the reference host (4 cores):
  // the op count is fixed by --seconds alone, never by measured time.
  double ops_per_second;
  size_t warmup_ops;
  size_t setup_reps;
};

constexpr size_t kDistWorkers = 2;
constexpr size_t kServeThreads = 2;  // server threads == client connections
constexpr size_t kServeCacheBytes = size_t{4} << 20;
constexpr size_t kServePoolSize = 4096;
constexpr double kServeZipfTheta = 0.99;

const Workload kWorkloads[] = {
    {"mine_scan", {500000, 0.25, 0.45, 3.0, 0.4, 1.2, 9, 8192}, 6.5, 3, 5},
    {"mine_dense", {50000, 0.18, 0.45, 3.0, 0.9, 1.1, 0, 0}, 4.5, 3, 9},
    {"mine_dist", {500000, 0.18, 0.45, 3.0, 0.9, 1.1, 0, 8192}, 2.7, 2, 5},
    {"serve_mixed", {50000, 0.20, 0.45, 3.0, 0.4, 1.1, 0, 0}, 5500.0, 4000,
     5},
};

// Smoke runs: a few mining ops, or a few hundred requests.
constexpr size_t kSmokeMiningOps = 3;
constexpr size_t kSmokeRequests = 200;

// Smoke mode: tiny inputs and a handful of ops, for the benchmark's own
// tests. Every check still runs.
MiningSpec SmokeSpec(MiningSpec spec) {
  spec.rows = spec.block_rows != 0 ? 20000 : 5000;
  if (spec.block_rows != 0) spec.block_rows = 1024;
  return spec;
}

MinerOptions OptionsFor(const MiningSpec& spec) {
  MinerOptions options;
  options.minsup = spec.minsup;
  options.max_support = spec.maxsup;
  options.partial_completeness = spec.k;
  options.minconf = spec.minconf;
  options.interest_level = spec.interest;
  options.num_intervals_override = spec.intervals;
  options.num_threads = 1;
  return options;
}

// The MapOptions QuantitativeRuleMiner::Mine derives from its options.
MapOptions MapOptionsFor(const MinerOptions& options) {
  MapOptions map_options;
  map_options.partial_completeness = options.partial_completeness;
  map_options.minsup = options.minsup;
  map_options.method = options.partition_method;
  map_options.num_intervals_override = options.num_intervals_override;
  map_options.max_quantitative_per_rule = options.max_quantitative_per_rule;
  map_options.taxonomies = options.taxonomies;
  return map_options;
}

std::string SpecJson(const MiningSpec& spec) {
  return StrFormat(
      "{\"rows\": %zu, \"minsup\": %g, \"maxsup\": %g, \"K\": %g, "
      "\"minconf\": %g, \"R\": %g, \"intervals\": %zu, \"block_rows\": %u, "
      "\"threads\": 1}",
      spec.rows, spec.minsup, spec.maxsup, spec.k, spec.minconf,
      spec.interest, spec.intervals, spec.block_rows);
}

// ---------------------------------------------------------------------------
// Measurement helpers.

double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ChildMaxRssMb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Resets the kernel's RSS high-water mark so VmHWM covers only what follows.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

// Digest of every field of every rule, in order. Rules that render to
// different `qarm mine` output (under the same decode metadata) differ here.
uint64_t RulesDigest(const std::vector<QuantRule>& rules) {
  std::vector<uint64_t> words;
  auto items = [&](const RangeItemset& set) {
    words.push_back(set.size());
    for (const RangeItem& item : set) {
      words.push_back((static_cast<uint64_t>(static_cast<uint32_t>(item.attr))
                       << 32) |
                      static_cast<uint32_t>(item.lo));
      words.push_back(static_cast<uint32_t>(item.hi));
    }
  };
  for (const QuantRule& rule : rules) {
    items(rule.antecedent);
    items(rule.consequent);
    uint64_t support = 0, confidence = 0;
    std::memcpy(&support, &rule.support, sizeof(support));
    std::memcpy(&confidence, &rule.confidence, sizeof(confidence));
    words.insert(words.end(), {rule.count, support, confidence,
                               static_cast<uint64_t>(rule.interesting)});
  }
  uint64_t h = 1469598103934665603ULL;
  for (const uint64_t w : words) h = SplitMix64(h ^ w);
  return h;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The tail percentile: the highest of these that keeps at least ten
// samples beyond it (nearest-rank), so it is never a lone outlier. The
// ladder stops at p99: serving's p99.9 moved 21% between runs on a shared
// host, where p99 stays inside the spread of the other metrics.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  size_t beyond = 0;
};

Tail TailOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail tail;
  if (v.empty()) return tail;
  tail.value = Median(v);
  tail.beyond = v.size() / 2;
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    const size_t idx = rank == 0 ? 0 : rank - 1;
    if (v.size() - 1 - idx >= 10) {
      tail = Tail{p, v[idx], v.size() - 1 - idx};
      break;
    }
  }
  return tail;
}

// ---------------------------------------------------------------------------
// What a workload run hands back.

struct Run {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_seconds;  // one per setup repetition
  std::vector<double> latencies_ms;   // timed ops (untraced)
  double timed_wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> traced_latencies_ms;        // trace mode only
  std::map<std::string, double> layers;           // trace mode only
  std::map<std::string, double> setup_step_s;     // summed over repetitions
  std::string options_json;

  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: failed op: %s\n", what.c_str());
  }
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build";
};

size_t TimedOps(const Workload& w, const Config& config, size_t smoke_ops) {
  if (config.smoke) return smoke_ops;
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(config.seconds * w.ops_per_second)));
}

// A host far slower than the one the op counts were sized on stops the
// timed loop at twice --seconds (after ten ops), keeping a run bounded.
bool Overran(const Timer& timed, const Config& config, size_t ops_done) {
  return !config.smoke && ops_done >= 10 &&
         timed.ElapsedSeconds() > 2.0 * config.seconds;
}

void WriteTrace(const Tracer& tracer, const Config& config,
                const char* workload) {
  const std::string path =
      StrFormat("%s/trace-%s-%llu.json", config.work_dir.c_str(), workload,
                static_cast<unsigned long long>(config.seed));
  if (!tracer.WriteChromeTrace(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

// Deletes a scratch file when the run ends, on every return path.
class RemoveOnExit {
 public:
  explicit RemoveOnExit(std::string path) : path_(std::move(path)) {}
  ~RemoveOnExit() { std::remove(path_.c_str()); }
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;

 private:
  std::string path_;
};

// Times `fn` as one named setup step.
template <typename Fn>
auto SetupStep(Run* run, const char* name, Fn&& fn) {
  Timer timer;
  auto out = fn();
  run->setup_step_s[name] += timer.ElapsedSeconds();
  return out;
}

// ---------------------------------------------------------------------------
// Mining workloads.

// Counts one piecewise mining run produced, for the per-layer metrics.
struct PieceStats {
  ScanIoStats io;
  std::vector<PassStats> passes;
  size_t rules = 0;
  size_t interesting = 0;
};

// QuantitativeRuleMiner's steps 3-5 called layer by layer with a span
// around each call, over `source`. Produces the same rules as MineStreamed
// (checked by the caller).
Result<std::vector<QuantRule>> MinePiecewise(const RecordSource& source,
                                             const MinerOptions& options,
                                             Tracer* tracer,
                                             PieceStats* stats) {
  ScanIoStats pass1_io;
  std::optional<ItemCatalog> catalog;
  {
    ScopedSpan span(tracer, "core.pass1");
    Result<ItemCatalog> built = ItemCatalog::Build(source, options, &pass1_io);
    if (!built.ok()) return built.status();
    catalog.emplace(std::move(built).value());
  }
  const CountSupportsFn count = [&](const CandidateStream& candidates,
                                    CountingStats* counting) {
    ScopedSpan span(tracer, "core.count");
    return CountSupports(source, *catalog, candidates, options, counting);
  };
  FrequentItemsetResult frequent;
  {
    ScopedSpan span(tracer, "core.mine_frequent");
    Result<FrequentItemsetResult> mined = MineFrequentItemsets(
        source, *catalog, options, nullptr, nullptr, count);
    if (!mined.ok()) return mined.status();
    frequent = std::move(mined).value();
  }
  std::vector<QuantRule> rules;
  {
    ScopedSpan span(tracer, "core.rulegen");
    rules = GenerateQuantRules(frequent.itemsets, *catalog, source.num_rows(),
                               options.minconf, options.num_threads);
  }
  {
    ScopedSpan span(tracer, "core.interest");
    InterestEvaluator evaluator(&*catalog, &frequent.itemsets,
                                options.interest_level, options.interest_mode);
    evaluator.EvaluateRules(&rules, options.num_threads);
  }
  {
    // MineStreamed also decodes every frequent itemset for its caller.
    ScopedSpan span(tracer, "core.decode");
    std::vector<RangeItemset> decoded;
    decoded.reserve(frequent.itemsets.size());
    for (const FrequentItemset& f : frequent.itemsets) {
      decoded.push_back(catalog->Decode(f.items));
    }
  }
  stats->io += pass1_io;
  for (const PassStats& pass : frequent.passes) {
    stats->io += pass.counting.io;
    stats->passes.push_back(pass);
  }
  stats->rules += rules.size();
  for (const QuantRule& rule : rules) stats->interesting += rule.interesting;
  return rules;
}

// Converts summed spans and pass stats into per-op layer metrics.
void MiningLayers(const Tracer& tracer, const PieceStats& stats, size_t ops,
                  size_t num_rows, std::map<std::string, double>* layers) {
  std::map<std::string, double> total, self;
  tracer.Summarize(&total, &self);
  const double n = static_cast<double>(ops);
  auto& out = *layers;
  out["storage.open_ms"] = total["storage.open"] / n;
  out["partition.map_ms"] = total["partition.map"] / n;
  out["core.pass1_ms"] = total["core.pass1"] / n;
  out["core.count_ms"] = total["core.count"] / n;
  out["core.candgen_ms"] = self["core.mine_frequent"] / n;
  out["core.rulegen_ms"] = total["core.rulegen"] / n;
  out["core.interest_ms"] = total["core.interest"] / n;
  out["core.decode_ms"] = total["core.decode"] / n;
  out["unattributed_ms"] = self["op"] / n;
  out["storage.blocks_read"] = static_cast<double>(stats.io.blocks_read) / n;
  out["storage.bytes_read"] = static_cast<double>(stats.io.bytes_read) / n;
  out["storage.crc_ms"] = stats.io.checksum_seconds * 1e3 / n;
  double group = 0, build = 0, scan = 0, reduce = 0;
  double candidates = 0, frequent = 0, rows = 0;
  for (const PassStats& pass : stats.passes) {
    group += pass.counting.group_seconds;
    build += pass.counting.build_seconds;
    scan += pass.counting.scan_seconds;
    reduce += pass.counting.reduce_seconds;
    if (pass.k >= 2 && pass.num_candidates > 0) {
      rows += static_cast<double>(num_rows);
      candidates += static_cast<double>(pass.num_candidates);
      frequent += static_cast<double>(pass.num_frequent);
    }
  }
  out["core.count.group_ms"] = group * 1e3 / n;
  out["core.count.build_ms"] = build * 1e3 / n;
  out["core.count.scan_ms"] = scan * 1e3 / n;
  out["core.count.reduce_ms"] = reduce * 1e3 / n;
  out["core.candidates"] = candidates / n;
  out["core.frequent_per_candidate"] = candidates > 0 ? frequent / candidates
                                                      : 0.0;
  out["core.interesting_per_rule"] =
      stats.rules > 0 ? static_cast<double>(stats.interesting) /
                            static_cast<double>(stats.rules)
                      : 0.0;
  // Scan rate: rows swept by the counting passes per second of scan time.
  out["core.count.rows_per_s"] = scan > 0 ? rows / scan : 0.0;
}

int RunMining(const Workload& w, const Config& config, Run* run) {
  const MiningSpec spec = config.smoke ? SmokeSpec(w.spec) : w.spec;
  const bool dense = spec.block_rows == 0;
  const bool dist = std::strcmp(w.name, "mine_dist") == 0;
  MinerOptions options = OptionsFor(spec);
  run->options_json = SpecJson(spec);
  const std::string qbt_path =
      StrFormat("%s/perfbench-%s-%d.qbt", config.work_dir.c_str(), w.name,
                static_cast<int>(getpid()));
  const RemoveOnExit remove_qbt(qbt_path);

  // Setup, repeated: generate the table and map it; write the QBT file
  // unless the op mines the table in memory.
  std::optional<Table> table;
  std::optional<MappedTable> mapped;
  const size_t reps = config.smoke ? 1 : w.setup_reps;
  for (size_t rep = 0; rep < reps; ++rep) {
    table.reset();
    mapped.reset();
    Timer setup;
    table.emplace(SetupStep(run, "table.gen", [&] {
      return MakeFinancialDataset(spec.rows, config.seed);
    }));
    Result<MappedTable> m = SetupStep(run, "partition.map", [&] {
      return MapTable(*table, MapOptionsFor(options));
    });
    if (!m.ok()) {
      std::fprintf(stderr, "map: %s\n", m.status().ToString().c_str());
      return 1;
    }
    mapped.emplace(std::move(m).value());
    if (!dense) {
      QbtWriteOptions write_options;
      write_options.rows_per_block = spec.block_rows;
      const Status written = SetupStep(run, "storage.write_qbt", [&] {
        return WriteQbt(*mapped, qbt_path, write_options);
      });
      if (!written.ok()) {
        std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
        return 1;
      }
      table.reset();
    }
    run->setup_seconds.push_back(setup.ElapsedSeconds());
  }

  // Reference rules, by a different path than the op: the in-memory miner
  // for the streamed op, the 2-thread miner over the set-up mapping for the
  // in-memory op, and the in-process streamed miner for the distributed op.
  uint64_t reference = 0;
  {
    Result<MiningResult> ref = Status::Internal("no reference");
    if (dense) {
      MinerOptions parallel = options;
      parallel.num_threads = 2;
      ref = QuantitativeRuleMiner(parallel).MineMapped(std::move(*mapped));
    } else if (dist) {
      Result<std::unique_ptr<QbtFileSource>> source =
          QbtFileSource::Open(qbt_path);
      if (source.ok()) {
        ref = QuantitativeRuleMiner(options).MineStreamed(**source);
      }
    } else {
      ref = QuantitativeRuleMiner(options).MineMapped(std::move(*mapped));
    }
    if (!ref.ok()) {
      std::fprintf(stderr, "reference: %s\n", ref.status().ToString().c_str());
      return 1;
    }
    reference = RulesDigest(ref->rules);
    std::fprintf(stderr, "perfbench: %s reference: %zu rules, %zu itemsets\n",
                 w.name, ref->rules.size(), ref->frequent_itemsets.size());
  }
  mapped.reset();

  MinerOptions dist_options = options;
  dist_options.num_workers = kDistWorkers;
  // One op through the public entry point; returns the op's wall time and
  // adds its CPU time, reaped workers included, to `op_cpu_s`.
  double op_cpu_s = 0.0;
  auto op = [&](MiningStats* stats) -> double {
    const double cpu0 = CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN);
    Timer timer;
    Result<MiningResult> result = Status::Internal("no op");
    if (dense) {
      result = QuantitativeRuleMiner(options).Mine(*table);
    } else if (dist) {
      result = MineDistributedQbt(qbt_path, dist_options);
    } else {
      Result<std::unique_ptr<QbtFileSource>> source =
          QbtFileSource::Open(qbt_path);
      if (source.ok()) {
        result = QuantitativeRuleMiner(options).MineStreamed(**source);
      } else {
        result = source.status();
      }
    }
    const double ms = timer.ElapsedMillis();
    op_cpu_s += CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN) - cpu0;
    ++run->attempted;
    if (!result.ok()) {
      run->Fail(result.status().ToString());
    } else if (RulesDigest(result->rules) != reference) {
      run->Fail("rules differ from the reference");
    } else if (stats != nullptr) {
      *stats = result->stats;
    }
    return ms;
  };

  // The traced op: the same work with a span around each layer call. The
  // distributed op is one call; its layers come from the run's own stats.
  Tracer tracer;
  PieceStats pieces;
  std::map<std::string, double>& layers = run->layers;
  auto traced_op = [&]() -> double {
    if (dist) {
      MiningStats stats;
      const double child0 = CpuSeconds(RUSAGE_CHILDREN);
      double ms = 0.0;
      {
        ScopedSpan root(&tracer, "op");
        ScopedSpan span(&tracer, "dist.mine");
        ms = op(&stats);
      }
      layers["dist.worker_cpu_ms"] +=
          (CpuSeconds(RUSAGE_CHILDREN) - child0) * 1e3;
      for (const DistPassStats& pass : stats.dist.passes) {
        layers["dist.exchange_ms"] += pass.exchange_seconds * 1e3;
        layers["dist.merge_ms"] += pass.merge_seconds * 1e3;
        layers["dist.bytes_sent"] += static_cast<double>(pass.bytes_sent);
        layers["dist.bytes_received"] +=
            static_cast<double>(pass.bytes_received);
      }
      layers["dist.respawns"] +=
          static_cast<double>(stats.dist.workers_respawned);
      layers["core.pass1_ms"] += stats.pass1_seconds * 1e3;
      layers["core.candgen_ms"] += stats.candgen_seconds * 1e3;
      layers["core.rulegen_ms"] += stats.rulegen_seconds * 1e3;
      layers["core.interest_ms"] += stats.interest_seconds * 1e3;
      return ms;
    }
    Result<std::vector<QuantRule>> rules = Status::Internal("no op");
    Timer timer;
    {
      ScopedSpan root(&tracer, "op");
      std::unique_ptr<QbtFileSource> qbt;
      std::optional<MappedTable> in_memory;
      std::optional<MappedTableSource> in_memory_source;
      const RecordSource* source = nullptr;
      if (dense) {
        Result<MappedTable> m = [&] {
          ScopedSpan span(&tracer, "partition.map");
          return MapTable(*table, MapOptionsFor(options));
        }();
        if (m.ok()) {
          in_memory.emplace(std::move(m).value());
          source = &in_memory_source.emplace(
              *in_memory, PickBlockRows(in_memory->num_rows(),
                                        ResolveNumThreads(options.num_threads),
                                        options.stream_block_rows));
        } else {
          rules = m.status();
        }
      } else {
        ScopedSpan span(&tracer, "storage.open");
        Result<std::unique_ptr<QbtFileSource>> opened =
            QbtFileSource::Open(qbt_path);
        if (opened.ok()) {
          qbt = std::move(opened).value();
          source = qbt.get();
        } else {
          rules = opened.status();
        }
      }
      if (source != nullptr) {
        rules = MinePiecewise(*source, options, &tracer, &pieces);
      }
    }
    const double ms = timer.ElapsedMillis();
    ++run->attempted;
    if (!rules.ok()) {
      run->Fail(rules.status().ToString());
    } else if (RulesDigest(*rules) != reference) {
      run->Fail("piecewise rules differ from MineStreamed");
    }
    return ms;
  };

  for (size_t i = 0; i < (config.smoke ? 1 : w.warmup_ops); ++i) op(nullptr);

  // Timed ops. A traced run alternates untraced and traced ops, so both
  // halves see the same machine and their medians give the tracing
  // overhead.
  const size_t ops = TimedOps(w, config, kSmokeMiningOps);
  ResetPeakRss();
  op_cpu_s = 0.0;
  Timer deadline;
  for (size_t i = 0; i < ops && !Overran(deadline, config, i); ++i) {
    if (config.trace && i % 2 == 1) {
      run->traced_latencies_ms.push_back(traced_op());
      continue;
    }
    run->latencies_ms.push_back(op(nullptr));
    run->timed_wall_s += run->latencies_ms.back() * 1e-3;
  }
  run->cpu_s = op_cpu_s;
  run->peak_rss_mb = PeakRssMb() + (dist ? ChildMaxRssMb() : 0.0);
  if (!config.trace) return 0;

  const size_t traced_ops = run->traced_latencies_ms.size();
  const double n = static_cast<double>(std::max<size_t>(traced_ops, 1));
  if (dist) {
    std::map<std::string, double> total, self;
    tracer.Summarize(&total, &self);
    // Counting runs on the workers: its share of the op is the exchange.
    double op_ms = 0.0;
    for (const double ms : run->traced_latencies_ms) op_ms += ms;
    layers["dist.count_share"] =
        op_ms > 0 ? layers["dist.exchange_ms"] / op_ms : 0.0;
    for (const char* name :
         {"dist.exchange_ms", "dist.merge_ms", "dist.bytes_sent",
          "dist.bytes_received", "dist.worker_cpu_ms", "core.pass1_ms",
          "core.candgen_ms", "core.rulegen_ms", "core.interest_ms"}) {
      layers[name] /= n;
    }
    layers["unattributed_ms"] = self["op"] / n;
  } else {
    MiningLayers(tracer, pieces, traced_ops, spec.rows, &layers);
    // Spans must account for the op: the remainder is glue between calls.
    const double op_ms = Median(run->traced_latencies_ms);
    if (!config.smoke && layers["unattributed_ms"] > 0.05 * op_ms) {
      std::fprintf(stderr,
                   "perfbench: unattributed %.3f ms exceeds 5%% of %.3f ms\n",
                   layers["unattributed_ms"], op_ms);
      run->correct = false;
    }
  }
  WriteTrace(tracer, config, w.name);
  return 0;
}

// ---------------------------------------------------------------------------
// Serving workload.

// Query targets built from the catalog's decode metadata (like
// bench/bench_serve.cpp): ~50% /match records with real labels and
// in-interval values, ~30% /topk, ~20% /rules pages with filters.
std::vector<std::string> BuildTargetPool(const RuleCatalog& catalog,
                                         uint64_t seed, size_t size) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const std::vector<MappedAttribute>& attrs = catalog.attributes();
  std::vector<std::string> pool;
  pool.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const uint64_t pick = rng.NextU64() % 10;
    std::string target;
    if (pick < 5) {
      target = "/match?";
      bool first = true;
      for (const MappedAttribute& attr : attrs) {
        if (rng.NextU64() % 3 == 0) continue;  // record lacks this attribute
        if (!first) target += "&";
        first = false;
        target += UrlEncode(attr.name) + "=";
        if (attr.kind == AttributeKind::kCategorical) {
          target += UrlEncode(attr.labels[rng.NextU64() % attr.labels.size()]);
        } else {
          const Interval& iv =
              attr.intervals[rng.NextU64() % attr.intervals.size()];
          target += StrFormat("%.0f", iv.lo);
        }
      }
      if (first) target += "mode=rule";
      if (rng.NextU64() % 4 == 0) target += "&mode=antecedent";
    } else if (pick < 8) {
      target = "/topk?metric=";
      target += RankMeasureName(static_cast<RankMeasure>(rng.NextU64() % 3));
      target += StrFormat("&k=%llu", static_cast<unsigned long long>(
                                         1 + rng.NextU64() % 20));
      if (rng.NextU64() % 3 == 0) {
        const MappedAttribute& attr = attrs[rng.NextU64() % attrs.size()];
        target += "&attr=" + UrlEncode(attr.name);
      }
    } else {
      const uint64_t offset = rng.NextU64() % 16;
      const uint64_t limit = 1 + rng.NextU64() % 25;
      target = StrFormat("/rules?offset=%llu&limit=%llu",
                         static_cast<unsigned long long>(offset),
                         static_cast<unsigned long long>(limit));
      if (rng.NextU64() % 2 == 0) {
        target += StrFormat("&min_conf=0.%llu", static_cast<unsigned long long>(
                                                    rng.NextU64() % 10));
      }
    }
    pool.push_back(std::move(target));
  }
  return pool;
}

HttpRequest ParseTarget(const std::string& target) {
  HttpRequest request;
  request.method = "GET";
  const size_t q = target.find('?');
  request.path = target.substr(0, q);
  if (q != std::string::npos) {
    for (const std::string& pair : Split(target.substr(q + 1), '&')) {
      const size_t eq = pair.find('=');
      request.params.emplace_back(
          UrlDecode(pair.substr(0, eq)),
          eq == std::string::npos ? "" : UrlDecode(pair.substr(eq + 1)));
    }
  }
  return request;
}

uint64_t BodyDigest(const HttpResponse& response) {
  return std::hash<std::string>()(response.body) ^
         static_cast<uint64_t>(response.status);
}

const char* HandlerSpanName(const std::string& path) {
  if (path == "/match") return "serve.handler.match";
  if (path == "/topk") return "serve.handler.topk";
  if (path == "/rules") return "serve.handler.rules";
  return "serve.handler.other";
}

// The served catalog plus a running server over it.
struct ServeState {
  std::shared_ptr<const RuleCatalog> catalog;
  std::shared_ptr<RuleService> service;
  std::unique_ptr<HttpServer> server;
};

// One closed-loop client: a keep-alive connection and its own target stream.
struct ServeClient {
  std::unique_ptr<HttpClient> http;
  Rng rng{0};
  std::vector<double> latencies_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Closes the connections, stops the server and counts the clients' ops.
int FinishServe(std::vector<ServeClient>* clients, ServeState* state,
                Run* run) {
  for (ServeClient& client : *clients) {
    run->attempted += client.attempted;
    run->failed += client.failed;
    client.http.reset();
  }
  state->server->Stop();
  return 0;
}

int RunServe(const Workload& w, const Config& config, Run* run) {
  const MiningSpec spec = config.smoke ? SmokeSpec(w.spec) : w.spec;
  const MinerOptions options = OptionsFor(spec);
  const size_t pool_size = config.smoke ? 256 : kServePoolSize;
  run->options_json = StrFormat(
      "{\"catalog\": %s, \"server_threads\": %zu, \"clients\": %zu, "
      "\"cache_bytes\": %zu, \"pool\": %zu, \"zipf\": %g, "
      "\"mix\": \"50/30/20 match/topk/rules\", \"loop\": \"closed\"}",
      SpecJson(spec).c_str(), kServeThreads, kServeThreads, kServeCacheBytes,
      pool_size, kServeZipfTheta);

  // In trace mode the handler records a span per request once `tracing` is
  // set; the untraced run passes RuleService::Handle straight through.
  Tracer tracer;
  std::atomic<bool> tracing{false};
  ServeState state;
  const size_t reps = config.smoke ? 1 : w.setup_reps;
  for (size_t rep = 0; rep < reps; ++rep) {
    if (state.server != nullptr) state.server->Stop();
    state = ServeState();
    Timer setup;
    const Table table = SetupStep(run, "table.gen", [&] {
      return MakeFinancialDataset(spec.rows, config.seed);
    });
    Result<MappedTable> mapped = SetupStep(run, "partition.map", [&] {
      return MapTable(table, MapOptionsFor(options));
    });
    if (!mapped.ok()) return 1;
    Result<MiningResult> mined = SetupStep(run, "core.mine", [&] {
      return QuantitativeRuleMiner(options).MineMapped(
          std::move(mapped).value());
    });
    if (!mined.ok()) {
      std::fprintf(stderr, "mine: %s\n", mined.status().ToString().c_str());
      return 1;
    }
    StoredRuleSet set = SetupStep(run, "core.export", [&] {
      return ExportRuleSet(*mined, options);
    });
    Result<std::shared_ptr<const RuleCatalog>> catalog =
        SetupStep(run, "serve.catalog_build",
                  [&] { return RuleCatalog::Build(std::move(set)); });
    if (!catalog.ok()) return 1;
    state.catalog = *catalog;
    RuleServiceOptions service_options;
    service_options.cache_bytes = kServeCacheBytes;
    state.service = std::make_shared<RuleService>(state.catalog,
                                                  service_options);
    HttpServerOptions server_options;
    server_options.port = 0;
    server_options.num_threads = kServeThreads;
    HttpServer::Handler handler;
    if (config.trace) {
      handler = [service = state.service, &tracer,
                 &tracing](const HttpRequest& request) {
        if (!tracing.load(std::memory_order_relaxed)) {
          return service->Handle(request);
        }
        ScopedSpan span(&tracer, HandlerSpanName(request.path));
        return service->Handle(request);
      };
    } else {
      handler = [service = state.service](const HttpRequest& request) {
        return service->Handle(request);
      };
    }
    Result<std::unique_ptr<HttpServer>> server = SetupStep(
        run, "serve.start", [&] { return HttpServer::Start(server_options,
                                                           handler); });
    if (!server.ok()) {
      std::fprintf(stderr, "serve: %s\n", server.status().ToString().c_str());
      return 1;
    }
    state.server = std::move(server).value();
    run->setup_seconds.push_back(setup.ElapsedSeconds());
  }
  run->layers["serve.index_bytes"] =
      static_cast<double>(state.catalog->stats().index_bytes);
  std::fprintf(stderr, "perfbench: serve catalog: %zu rules\n",
               state.catalog->stats().num_rules);

  // Output check: every pool target answers identically with the cache on
  // (a miss, then a hit) and off. The digests then check every response
  // the server sends during the run.
  const std::vector<std::string> pool =
      BuildTargetPool(*state.catalog, config.seed, pool_size);
  std::vector<uint64_t> expected(pool.size());
  {
    RuleServiceOptions off;
    off.cache_bytes = 0;
    RuleService uncached(state.catalog, off);
    RuleServiceOptions on;
    on.cache_bytes = kServeCacheBytes;
    RuleService cached(state.catalog, on);
    std::atomic<uint64_t> mismatches{0};
    const size_t threads = std::max<size_t>(
        1, std::min<size_t>(4, std::thread::hardware_concurrency()));
    const std::vector<IndexRange> shards = SplitRange(pool.size(), threads);
    ThreadPool workers(shards.size());
    workers.ParallelFor(shards.size(), [&](size_t s) {
      for (size_t i = shards[s].begin; i < shards[s].end; ++i) {
        const HttpRequest request = ParseTarget(pool[i]);
        const HttpResponse base = uncached.Handle(request);
        expected[i] = BodyDigest(base);
        for (int round = 0; round < 2; ++round) {
          const HttpResponse hit = cached.Handle(request);
          if (hit.status != base.status || hit.body != base.body ||
              base.status / 100 != 2) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
    run->attempted += pool.size();
    run->failed += mismatches.load();
    if (mismatches.load() > 0) {
      std::fprintf(stderr, "perfbench: %llu targets differ with the cache\n",
                   static_cast<unsigned long long>(mismatches.load()));
    }
  }

  // Closed loop: each client owns one keep-alive connection and sends its
  // next request when the previous reply arrives. Targets are drawn
  // Zipf(0.99) over the pool from a per-client seeded stream.
  const ZipfDistribution zipf(pool.size(), kServeZipfTheta);
  const uint16_t port = state.server->port();
  std::vector<ServeClient> clients(kServeThreads);
  for (size_t c = 0; c < clients.size(); ++c) {
    Result<std::unique_ptr<HttpClient>> http =
        HttpClient::Connect("127.0.0.1", port);
    if (!http.ok()) {
      std::fprintf(stderr, "connect: %s\n", http.status().ToString().c_str());
      return 1;
    }
    clients[c].http = std::move(http).value();
    clients[c].rng = Rng(config.seed * 1000003ULL + c);
  }
  // One phase: every client sends `requests` requests; returns the wall
  // time of the phase and appends the latencies when `record` is set.
  auto phase = [&](size_t requests, std::vector<double>* record) {
    Timer wall;
    std::vector<std::thread> threads;
    for (ServeClient& client : clients) {
      threads.emplace_back([&, requests] {
        client.latencies_ms.clear();
        client.latencies_ms.reserve(requests);
        for (size_t i = 0; i < requests; ++i) {
          const size_t pick = zipf.Sample(&client.rng);
          Timer timer;
          Result<HttpResponse> response = client.http->Get(pool[pick]);
          const double ms = timer.ElapsedMillis();
          ++client.attempted;
          if (!response.ok() || response->status / 100 != 2 ||
              BodyDigest(*response) != expected[pick]) {
            ++client.failed;
            continue;
          }
          client.latencies_ms.push_back(ms);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds = wall.ElapsedSeconds();
    for (ServeClient& client : clients) {
      if (record != nullptr) {
        record->insert(record->end(), client.latencies_ms.begin(),
                       client.latencies_ms.end());
      }
    }
    return seconds;
  };

  phase(config.smoke ? 50 : w.warmup_ops / kServeThreads, nullptr);
  const size_t per_client =
      std::max<size_t>(1, TimedOps(w, config, kSmokeRequests) / kServeThreads);
  const ResultCacheStats before = state.service->cache_manager()->TotalStats();
  ResetPeakRss();
  if (!config.trace) {
    const double cpu0 = CpuSeconds(RUSAGE_SELF);
    run->timed_wall_s = phase(per_client, &run->latencies_ms);
    run->cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
    run->peak_rss_mb = PeakRssMb();
    return FinishServe(&clients, &state, run);
  }

  // A traced run alternates untraced and traced slices, so both see the
  // same machine and their medians give the tracing overhead.
  constexpr size_t kSlices = 10;
  const size_t per_slice = std::max<size_t>(1, per_client / (2 * kSlices));
  for (size_t slice = 0; slice < kSlices; ++slice) {
    phase(per_slice, &run->latencies_ms);
    tracing.store(true);
    phase(per_slice, &run->traced_latencies_ms);
    tracing.store(false);
  }
  const ResultCacheStats after = state.service->cache_manager()->TotalStats();
  const uint64_t lookups =
      (after.hits - before.hits) + (after.misses - before.misses);
  run->layers["serve.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(after.hits - before.hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  run->layers["serve.cache_evictions"] =
      static_cast<double>(after.evictions - before.evictions);
  std::map<std::string, double> total_ms, self_ms;
  std::map<std::string, size_t> spans;
  tracer.Summarize(&total_ms, &self_ms, &spans);
  double handler_ms = 0;
  for (const char* endpoint : {"match", "topk", "rules"}) {
    const std::string name = std::string("serve.handler.") + endpoint;
    handler_ms += total_ms[name];
    run->layers["serve.handler_ms." + std::string(endpoint)] =
        spans[name] > 0 ? total_ms[name] / static_cast<double>(spans[name])
                        : 0.0;
  }
  // Transport: what the client waited beyond the handler (parse, socket
  // round trip, thread wake-ups).
  double client_ms = 0;
  for (const double ms : run->traced_latencies_ms) client_ms += ms;
  const double requests = static_cast<double>(run->traced_latencies_ms.size());
  run->layers["serve.transport_ms"] =
      requests > 0 ? (client_ms - handler_ms) / requests : 0.0;
  WriteTrace(tracer, config, w.name);
  return FinishServe(&clients, &state, run);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, printed by every traced run (0 where the workload
// does not exercise the layer).
const Metric kLayerMetrics[] = {
    {"table.gen_s", "s"},
    {"partition.map_s", "s"},
    {"storage.write_qbt_s", "s"},
    {"storage.open_ms", "ms"},
    {"storage.blocks_read", "count"},
    {"storage.bytes_read", "bytes"},
    {"storage.crc_ms", "ms"},
    {"core.pass1_ms", "ms"},
    {"core.count_ms", "ms"},
    {"core.count.group_ms", "ms"},
    {"core.count.build_ms", "ms"},
    {"core.count.scan_ms", "ms"},
    {"core.count.reduce_ms", "ms"},
    {"core.count.rows_per_s", "1/s"},
    {"core.candgen_ms", "ms"},
    {"core.candidates", "count"},
    {"core.frequent_per_candidate", "ratio"},
    {"core.rulegen_ms", "ms"},
    {"core.interest_ms", "ms"},
    {"core.interesting_per_rule", "ratio"},
    {"core.decode_ms", "ms"},
    {"partition.map_ms", "ms"},
    {"core.export_ms", "ms"},
    {"unattributed_ms", "ms"},
    {"dist.exchange_ms", "ms"},
    {"dist.merge_ms", "ms"},
    {"dist.bytes_sent", "bytes"},
    {"dist.bytes_received", "bytes"},
    {"dist.worker_cpu_ms", "ms"},
    {"dist.respawns", "count"},
    {"dist.count_share", "ratio"},
    {"serve.catalog_build_s", "s"},
    {"serve.index_bytes", "bytes"},
    {"serve.handler_ms.match", "ms"},
    {"serve.handler_ms.topk", "ms"},
    {"serve.handler_ms.rules", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"trace.overhead_ms", "ms"},
};

void AppendMetric(std::string* json, const char* name, double value,
                  const char* unit) {
  if (!std::isfinite(value)) value = 0.0;
  *json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     json->back() == '{' ? "" : ", ", name, value, unit);
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      config.smoke = true;
    } else if (value != nullptr && flag == "--workload") {
      config.workload = argv[++i];
    } else if (value != nullptr && flag == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (value != nullptr && flag == "--seconds") {
      config.seconds = std::atof(argv[++i]);
    } else if (value != nullptr && flag == "--trace") {
      config.trace = std::atoi(argv[++i]) != 0;
    } else if (value != nullptr && flag == "--work-dir") {
      config.work_dir = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete flag %s\n",
                   flag.c_str());
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !(config.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --workload must be one of mine_scan, "
                         "mine_dense, mine_dist, serve_mixed; --seconds > 0\n");
    return 2;
  }

  Run run;
  const bool serve = std::strcmp(workload->name, "serve_mixed") == 0;
  const int rc = serve ? RunServe(*workload, config, &run)
                       : RunMining(*workload, config, &run);
  if (rc != 0) return rc;

  const size_t n = run.latencies_ms.size();
  const Tail tail = TailOf(run.latencies_ms);
  const double reps = static_cast<double>(run.setup_seconds.size());
  std::string context = StrFormat(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"smoke\": %d, \"options\": %s, \"timed_ops\": %zu, "
      "\"tail_percentile\": %g, \"tail_samples_beyond\": %zu, "
      "\"setup_reps\": %zu, \"nproc\": %ld, \"isa\": \"%s\", "
      "\"build_type\": \"%s\"}}",
      workload->name, static_cast<unsigned long long>(config.seed),
      config.trace ? 1 : 0, config.smoke ? 1 : 0, run.options_json.c_str(), n,
      tail.percentile, tail.beyond, run.setup_seconds.size(),
      sysconf(_SC_NPROCESSORS_ONLN), IsaName(ActiveIsa()),
      PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", context.c_str());

  std::string metrics = "{";
  if (!config.trace) {
    const double busy_s = run.timed_wall_s;
    AppendMetric(&metrics, "setup_s", Median(run.setup_seconds), "s");
    AppendMetric(&metrics, "p50_ms", Median(run.latencies_ms), "ms");
    AppendMetric(&metrics, "tail_ms", tail.value, "ms");
    AppendMetric(&metrics, "ops_per_s",
                 busy_s > 0 ? static_cast<double>(n) / busy_s : 0.0, "1/s");
    AppendMetric(&metrics, "cpu_ms_per_op",
                 n > 0 ? run.cpu_s * 1e3 / static_cast<double>(n) : 0.0, "ms");
    AppendMetric(&metrics, "peak_rss_mb", run.peak_rss_mb, "MB");
  } else {
    std::map<std::string, double> layers = run.layers;
    layers["table.gen_s"] = run.setup_step_s["table.gen"] / reps;
    layers["partition.map_s"] = run.setup_step_s["partition.map"] / reps;
    layers["storage.write_qbt_s"] =
        run.setup_step_s["storage.write_qbt"] / reps;
    layers["serve.catalog_build_s"] =
        run.setup_step_s["serve.catalog_build"] / reps;
    layers["core.export_ms"] = run.setup_step_s["core.export"] * 1e3 / reps;
    layers["trace.overhead_ms"] =
        Median(run.traced_latencies_ms) - Median(run.latencies_ms);
    for (const Metric& m : kLayerMetrics) {
      AppendMetric(&metrics, m.name, layers[m.name], m.unit);
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.correct && run.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
