// qarm — command-line quantitative association rule miner.
//
// Usage:
//   qarm --input=data.csv --schema="Age:quant,Married:cat,NumCars:quant" ...
//        [--minsup=0.1] [--minconf=0.5] [--maxsup=0.4] [--k=2.0] ...
//        [--interest=0] [--intervals=0] [--method=depth|width] ...
//        [--interesting-only] [--itemsets] [--stats]
//   qarm --input-qbt=data.qbt ...       (mine a converted file, streaming)
//   qarm convert --input=data.csv --schema=SPEC --output=data.qbt ...
//   qarm gen --output=data.csv --records=N [--seed=N]
//
// The schema string names each CSV column in order and tags it
// "quant"/"quantitative" (numeric; parsed as double if it contains '.',
// int64 otherwise — controlled per column with ":quant:int" /
// ":quant:double") or "cat"/"categorical".
//
// `convert` partitions and integer-maps the CSV once (the partitioning
// flags --minsup/--k/--intervals/--method apply at convert time) and
// writes the binary columnar QBT file; mining it with --input-qbt streams
// the file block by block, so tables larger than RAM mine in bounded
// memory.
//
// Every input is untrusted: flag parsing, option validation, schema-spec
// parsing, the CSV reader, and the QBT reader all return Status instead of
// aborting, so a bad flag or a corrupt file always exits with a diagnostic
// (exit code 1 or 2), never a crash; running out of memory exits 4 with a
// diagnostic. cli_flags.{h,cc} holds the parsing so
// tests and the fuzz harnesses drive the same code path.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/output_writer.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/incremental_miner.h"
#include "core/miner.h"
#include "core/report.h"
#include "core/rules_export.h"
#include "dist/dist_miner.h"
#include "dist/worker_registry.h"
#include "dist/worker_server.h"
#include "partition/mapper.h"
#include "serve/http_server.h"
#include "serve/rule_catalog.h"
#include "serve/rule_service.h"
#include "storage/byte_reader.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "storage/rules_format.h"
#include "table/csv.h"
#include "table/datagen.h"
#include "tools/cli_flags.h"

namespace qarm {
namespace {

// Set by the SIGINT handler and polled by the miner at pass boundaries, so
// Ctrl-C writes a final checkpoint and exits cleanly instead of losing the
// run. sig_atomic_t-free: std::atomic<bool> is lock-free on every supported
// host and safe to set from a signal handler.
std::atomic<bool> g_interrupted{false};

extern "C" void HandleSigint(int) { g_interrupted.store(true); }

// Prints a flag/validation error with a usage hint; exit code 2.
int UsageError(const Status& status) {
  std::fprintf(stderr, "%s\nRun 'qarm --help' for usage.\n",
               status.ToString().c_str());
  return 2;
}

// `qarm convert`: CSV -> partition/map -> QBT.
int RunConvert(const CliFlags& flags) {
  if (flags.input.empty() || flags.schema.empty() || flags.output.empty()) {
    std::fprintf(stderr,
                 "convert needs --input, --schema, and --output\n%s",
                 CliUsage());
    return 2;
  }
  auto options = MinerOptionsFromFlags(flags);
  if (!options.ok()) return UsageError(options.status());
  auto schema = Schema::Parse(flags.schema);
  if (!schema.ok()) {
    return UsageError(Status::InvalidArgument("bad --schema: " +
                                              schema.status().message()));
  }
  auto table = ReadCsv(flags.input, *schema);
  if (!table.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", flags.input.c_str(),
                 table.status().ToString().c_str());
    return 1;
  }
  MapOptions map_options;
  map_options.partial_completeness = options->partial_completeness;
  map_options.minsup = options->minsup;
  map_options.method = options->partition_method;
  map_options.num_intervals_override = options->num_intervals_override;
  auto mapped = MapTable(*table, map_options);
  if (!mapped.ok()) {
    std::fprintf(stderr, "cannot map %s: %s\n", flags.input.c_str(),
                 mapped.status().ToString().c_str());
    return 1;
  }
  QbtWriteOptions write_options;
  if (flags.block_rows > 0) {
    if (flags.block_rows > std::numeric_limits<uint32_t>::max()) {
      return UsageError(Status::InvalidArgument(StrFormat(
          "--block-rows=%zu exceeds the QBT per-block limit (%u)",
          flags.block_rows, std::numeric_limits<uint32_t>::max())));
    }
    write_options.rows_per_block = static_cast<uint32_t>(flags.block_rows);
  }
  QbtWriteInfo info;
  Status status = WriteQbt(*mapped, flags.output, write_options, &info);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", flags.output.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "# wrote %s: %llu rows, %llu blocks, %llu bytes\n",
               flags.output.c_str(),
               static_cast<unsigned long long>(info.num_rows),
               static_cast<unsigned long long>(info.num_blocks),
               static_cast<unsigned long long>(info.file_bytes));
  return 0;
}

// `qarm append`: CSV -> map under the QBT file's frozen metadata -> new
// blocks appended to the file. Partitioning flags are ignored: the
// intervals and labels were fixed when the file was converted.
int RunAppend(const CliFlags& flags) {
  if (flags.input.empty() || flags.schema.empty() || flags.output.empty()) {
    std::fprintf(stderr, "append needs --input, --schema, and --output\n%s",
                 CliUsage());
    return 2;
  }
  auto schema = Schema::Parse(flags.schema);
  if (!schema.ok()) {
    return UsageError(Status::InvalidArgument("bad --schema: " +
                                              schema.status().message()));
  }
  auto table = ReadCsv(flags.input, *schema);
  if (!table.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", flags.input.c_str(),
                 table.status().ToString().c_str());
    return 1;
  }
  // Open the target for its attribute metadata (rolling back any
  // uncommitted bytes a crashed append left behind first).
  auto source = QbtFileSource::Open(flags.output);
  if (!source.ok()) {
    Status recovered = RecoverQbt(flags.output);
    if (recovered.ok()) source = QbtFileSource::Open(flags.output);
  }
  if (!source.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", flags.output.c_str(),
                 source.status().ToString().c_str());
    return 1;
  }
  auto mapped = MapTableWithAttributes(*table, (*source)->attributes());
  if (!mapped.ok()) {
    std::fprintf(stderr, "cannot map %s under %s's metadata: %s\n",
                 flags.input.c_str(), flags.output.c_str(),
                 mapped.status().ToString().c_str());
    return 1;
  }
  source->reset();  // AppendQbt re-opens the file itself
  QbtAppendInfo info;
  Status status = AppendQbt(*mapped, flags.output, &info);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot append to %s: %s\n", flags.output.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "# appended %llu rows (%llu blocks) to %s: now %llu rows, "
               "%llu blocks, %llu bytes\n",
               static_cast<unsigned long long>(info.rows_appended),
               static_cast<unsigned long long>(info.blocks_appended),
               flags.output.c_str(),
               static_cast<unsigned long long>(info.total_rows),
               static_cast<unsigned long long>(info.total_blocks),
               static_cast<unsigned long long>(info.file_bytes));
  return 0;
}

// `qarm gen`: stream the synthetic financial dataset to CSV.
int RunGen(const CliFlags& flags) {
  if (flags.output.empty() || flags.records == 0) {
    std::fprintf(stderr, "gen needs --output and --records\n%s", CliUsage());
    return 2;
  }
  Status status =
      WriteFinancialDatasetCsv(flags.output, flags.records, flags.seed);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", flags.output.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "# wrote %s: %zu records (seed %llu)\n",
               flags.output.c_str(), flags.records,
               static_cast<unsigned long long>(flags.seed));
  return 0;
}

// Flushes a command's rule output: `exit_code` once every byte is written,
// else 1 with "cannot write output: ..." (a full disk, a closed pipe).
int FinishOutput(OutputWriter* out, int exit_code) {
  const Status status = out->Finish();
  if (status.ok()) return exit_code;
  std::fprintf(stderr, "cannot write output: %s\n", status.message().c_str());
  return 1;
}

// `qarm rules dump FILE.qrs`: inspect a rule-set file with the same
// reader, filters, and JSON renderer the server uses.
int RunRulesDump(const CliFlags& flags) {
  const std::string path =
      !flags.positional.empty() ? flags.positional : flags.rules_file;
  if (path.empty()) {
    std::fprintf(stderr, "rules dump needs a FILE.qrs argument\n%s",
                 CliUsage());
    return 2;
  }
  auto catalog = RuleCatalog::Load(path);
  if (!catalog.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 catalog.status().ToString().c_str());
    return 1;
  }
  BrowseFilter filter;
  filter.min_confidence = flags.min_conf;
  filter.interesting_only = flags.interesting_only;
  if (!flags.attr.empty()) {
    auto attr = (*catalog)->AttributeIndex(flags.attr);
    if (!attr.ok()) {
      std::fprintf(stderr, "%s\n", attr.status().ToString().c_str());
      return 1;
    }
    filter.attr = *attr;
  }
  size_t total = 0;
  const std::vector<uint32_t> selected = (*catalog)->Browse(
      filter, 0, std::numeric_limits<size_t>::max(), &total);
  OutputWriter out(stdout);
  if (flags.format == "json") {
    out.Format("{\"file\":\"%s\",\"num_rules\":%zu,\"selected\":%zu,"
               "\"rules\":[",
               path.c_str(), (*catalog)->rules().size(), total);
    for (size_t i = 0; i < selected.size(); ++i) {
      if (i > 0) out.Write(',');
      WriteStoredRuleJson(selected[i], (*catalog)->rules()[selected[i]],
                          (*catalog)->labels(), &out);
    }
    out.Write("]}\n");
  } else {
    std::fprintf(stderr,
                 "# %s: %zu rules over %zu attributes, %llu records "
                 "(minsup %.3f, minconf %.3f); showing %zu\n",
                 path.c_str(), (*catalog)->rules().size(),
                 (*catalog)->attributes().size(),
                 static_cast<unsigned long long>((*catalog)->num_records()),
                 (*catalog)->minsup(), (*catalog)->minconf(), total);
    for (uint32_t rule_id : selected) {
      WriteStoredRuleText((*catalog)->rules()[rule_id], (*catalog)->labels(),
                          &out);
    }
  }
  return FinishOutput(&out, 0);
}

// `qarm worker`: serve QBT shards to a remote mining coordinator until
// SIGINT (or --serve-seconds elapses).
int RunWorker(const CliFlags& flags) {
  if (flags.listen.empty() || flags.input_qbt.empty()) {
    std::fprintf(stderr, "worker needs --listen=HOST:PORT and --input-qbt\n%s",
                 CliUsage());
    return 2;
  }
  auto endpoint = ParseWorkerEndpoint(flags.listen);
  if (!endpoint.ok() && flags.listen.rfind(':') != std::string::npos &&
      flags.listen.substr(flags.listen.rfind(':') + 1) == "0") {
    // ParseWorkerEndpoint rejects port 0 (a *target* needs a real port),
    // but a listener may bind ephemerally.
    WorkerEndpoint e;
    e.host = flags.listen.substr(0, flags.listen.rfind(':'));
    e.port = 0;
    e.text = flags.listen;
    endpoint = e;
  }
  if (!endpoint.ok()) return UsageError(endpoint.status());

  WorkerServerOptions options;
  options.host = endpoint->host;
  options.port = endpoint->port;
  options.qbt_path = flags.input_qbt;
  auto server = WorkerServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "cannot start worker: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "# worker serving %s on %s:%u\n",
               flags.input_qbt.c_str(), endpoint->host.c_str(),
               (*server)->port());
  if (!flags.port_file.empty()) {
    // Atomic, so a script polling for the file never reads half a value.
    Status status = WriteFileAtomic(flags.port_file,
                                    StrFormat("%u\n", (*server)->port()));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);
  Timer uptime;
  while (!g_interrupted.load()) {
    if (flags.serve_seconds > 0 &&
        uptime.ElapsedSeconds() >= flags.serve_seconds) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  (*server)->Stop();
  std::fprintf(stderr,
               "# worker served %llu sessions in %.1fs; shut down cleanly\n",
               static_cast<unsigned long long>((*server)->sessions_served()),
               uptime.ElapsedSeconds());
  return 0;
}

// `qarm serve`: load a QRS file and serve it over HTTP until SIGINT (or
// --serve-seconds elapses).
int RunServe(const CliFlags& flags) {
  const std::string path =
      !flags.rules_file.empty() ? flags.rules_file : flags.positional;
  if (path.empty()) {
    std::fprintf(stderr, "serve needs --rules=FILE.qrs\n%s", CliUsage());
    return 2;
  }
  Timer load_timer;
  auto catalog = RuleCatalog::Load(path);
  if (!catalog.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 catalog.status().ToString().c_str());
    return 1;
  }
  const RuleCatalogStats& stats = (*catalog)->stats();
  std::fprintf(stderr,
               "# loaded %s: %zu rules, %zu attributes, %zu index entries "
               "(%zu KiB) in %.3fs\n",
               path.c_str(), stats.num_rules, stats.num_attributes,
               stats.interval_entries, stats.index_bytes / 1024,
               load_timer.ElapsedSeconds());

  RuleServiceOptions service_options;
  service_options.cache_bytes = flags.cache_mb * size_t{1024} * 1024;
  auto service =
      std::make_shared<RuleService>(*catalog, service_options);

  HttpServerOptions server_options;
  server_options.host = flags.host;
  server_options.port = static_cast<uint16_t>(flags.port);
  server_options.num_threads = flags.serve_threads == 0
                                   ? 1
                                   : flags.serve_threads;
  auto server = HttpServer::Start(
      server_options,
      [service](const HttpRequest& request) {
        return service->Handle(request);
      });
  if (!server.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "# listening on http://%s:%u (threads=%zu cache=%zu "
               "MiB)\n",
               flags.host.c_str(), (*server)->port(),
               server_options.num_threads, flags.cache_mb);
  if (!flags.port_file.empty()) {
    // Atomic, so a script polling for the file never reads half a value.
    Status status = WriteFileAtomic(flags.port_file,
                                    StrFormat("%u\n", (*server)->port()));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);
  Timer uptime;
  while (!g_interrupted.load()) {
    if (flags.serve_seconds > 0 &&
        uptime.ElapsedSeconds() >= flags.serve_seconds) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  (*server)->Stop();
  std::fprintf(stderr, "# served %llu connections in %.1fs; shut down "
               "cleanly\n",
               static_cast<unsigned long long>(
                   (*server)->connections_accepted()),
               uptime.ElapsedSeconds());
  return 0;
}

// Exit code of a command that ran out of memory.
constexpr int kExitOutOfMemory = 4;

int RunCommand(int argc, char** argv, const std::string& command,
               int first_arg) {
  auto flags_or = ParseCliArgs(argc, argv, first_arg);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n%s", flags_or.status().ToString().c_str(),
                 CliUsage());
    return 2;
  }
  const CliFlags& flags = *flags_or;
  if (flags.help) {
    std::printf("%s", CliUsage());
    return 0;
  }
  if (command == "convert") return RunConvert(flags);
  if (command == "append") return RunAppend(flags);
  if (command == "gen") return RunGen(flags);
  if (command == "worker") return RunWorker(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "rules dump") return RunRulesDump(flags);
  if (!command.empty()) {
    std::fprintf(stderr, "unknown command: %s\n%s", command.c_str(),
                 CliUsage());
    return 2;
  }
  const bool csv_mode = !flags.input.empty() && !flags.schema.empty();
  const bool qbt_mode = !flags.input_qbt.empty();
  if (csv_mode == qbt_mode) {  // neither, or conflicting
    std::fprintf(stderr, "%s", CliUsage());
    return 2;
  }
  if (flags.workers > 1 && !qbt_mode) {
    std::fprintf(stderr,
                 "--workers needs --input-qbt (workers shard QBT blocks)\n");
    return 2;
  }
  if (!flags.worker_endpoints.empty() && !qbt_mode) {
    std::fprintf(stderr,
                 "--worker=HOST:PORT needs --input-qbt (remote workers "
                 "shard QBT blocks)\n");
    return 2;
  }
  if (flags.append && !qbt_mode) {
    std::fprintf(stderr,
                 "--append needs --input-qbt (incremental mining works "
                 "over appended QBT blocks)\n");
    return 2;
  }
  if (flags.append && flags.checkpoint.empty()) {
    std::fprintf(stderr,
                 "--append needs --checkpoint (the completed run's "
                 "checkpoint is the incremental base)\n");
    return 2;
  }

  auto options = MinerOptionsFromFlags(flags);
  if (!options.ok()) return UsageError(options.status());
  if (!options->checkpoint_path.empty()) {
    options->cancel_flag = &g_interrupted;
    std::signal(SIGINT, HandleSigint);
  }
  IncrementalDecision incremental;
  Result<MiningResult> result = [&]() -> Result<MiningResult> {
    if (qbt_mode) {
      // MineDistributedQbt opens the file itself and mines full or
      // incremental runs, in process or on the workers the options name.
      return MineDistributedQbt(flags.input_qbt, *options,
                                flags.append ? &incremental : nullptr);
    }
    QARM_ASSIGN_OR_RETURN(Schema schema, Schema::Parse(flags.schema));
    QARM_ASSIGN_OR_RETURN(Table table, ReadCsv(flags.input, schema));
    return QuantitativeRuleMiner(*options).Mine(table);
  }();
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kCancelled) {
      if (flags.kill_after_pass > 0) {
        // Crash simulation for the resume smoke test: the checkpoint for
        // the final completed pass is on disk; die without any cleanup.
        std::raise(SIGKILL);
      }
      std::fprintf(stderr, "interrupted: %s\n",
                   result.status().message().c_str());
      if (!flags.checkpoint.empty()) {
        std::fprintf(stderr, "rerun with the same flags to resume from %s\n",
                     flags.checkpoint.c_str());
      }
      return 130;  // 128 + SIGINT, the conventional Ctrl-C exit code
    }
    std::fprintf(stderr, "mining failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (flags.append) {
    // One line on how the incremental run actually executed — the rules
    // are identical either way, but the user should see whether the base
    // was reused and why not when it wasn't.
    if (incremental.incremental) {
      std::fprintf(
          stderr,
          "# incremental: base=%llu blocks (%llu rows) delta=%llu blocks "
          "(%llu rows) passes_merged=%zu passes_rescanned=%zu\n",
          static_cast<unsigned long long>(incremental.base_blocks),
          static_cast<unsigned long long>(incremental.base_rows),
          static_cast<unsigned long long>(incremental.delta_blocks),
          static_cast<unsigned long long>(incremental.delta_rows),
          incremental.passes_merged, incremental.passes_rescanned);
    } else {
      std::fprintf(stderr, "# incremental: %s mine (%s)\n",
                   incremental.resumed ? "resumed" : "full",
                   incremental.reason.c_str());
    }
  }

  if (!flags.output_rules.empty()) {
    StoredRuleSet rule_set = ExportRuleSet(*result, *options);
    uint64_t bytes = 0;
    Status status = WriteRuleSet(rule_set, flags.output_rules, &bytes);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n",
                   flags.output_rules.c_str(), status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "# wrote %s: %zu rules, %llu bytes\n",
                 flags.output_rules.c_str(), rule_set.rules.size(),
                 static_cast<unsigned long long>(bytes));
  }

  RuleOutputOptions output;
  output.format = flags.format == "json"  ? RuleFormat::kJson
                  : flags.format == "csv" ? RuleFormat::kCsv
                                          : RuleFormat::kText;
  output.interesting_only = flags.interesting_only;
  output.show_itemsets = flags.show_itemsets;
  output.mark_interesting = flags.interest > 0;
  OutputWriter out(stdout);
  const size_t printed = WriteMiningResult(*result, output, &out);
  const int exit_code = FinishOutput(&out, printed > 0 ? 0 : 3);
  if (flags.show_stats) {
    const MiningStats& stats = result->stats;
    std::fprintf(stderr,
                 "# records=%zu items=%zu rules=%zu interesting=%zu "
                 "achievedK=%.2f time=%.3fs\n",
                 stats.num_records, stats.num_frequent_items, stats.num_rules,
                 stats.num_interesting_rules,
                 stats.achieved_partial_completeness, stats.total_seconds);
    ScanIoStats io = stats.pass1_io;
    for (const PassStats& pass : stats.passes) io += pass.counting.io;
    if (io.blocks_read > 0) {
      std::fprintf(stderr,
                   "# io: blocks_read=%llu bytes_mapped=%llu "
                   "checksum=%.3fs (pass1 %llu blocks)\n",
                   static_cast<unsigned long long>(io.blocks_read),
                   static_cast<unsigned long long>(io.bytes_read),
                   io.checksum_seconds,
                   static_cast<unsigned long long>(
                       stats.pass1_io.blocks_read));
    }
    if (stats.dist.num_workers > 0) {
      DistPassStats sum;
      for (const DistPassStats& pass : stats.dist.passes) sum += pass;
      std::fprintf(stderr,
                   "# distributed: workers=%zu respawned=%zu sent=%llu "
                   "received=%llu exchange=%.3fs merge=%.3fs\n",
                   stats.dist.num_workers, stats.dist.workers_respawned,
                   static_cast<unsigned long long>(sum.bytes_sent),
                   static_cast<unsigned long long>(sum.bytes_received),
                   sum.exchange_seconds, sum.merge_seconds);
      for (const DistWorkerStats& worker : stats.dist.workers) {
        // One line per worker only when something noteworthy happened —
        // a clean run stays quiet.
        if (worker.respawns == 0 && worker.reconnects == 0 &&
            worker.heartbeat_timeouts == 0) {
          continue;
        }
        std::fprintf(stderr,
                     "# worker %u%s%s: respawns=%zu reconnects=%zu "
                     "redistributed=%zu heartbeat_timeouts=%zu "
                     "frames_retried=%zu\n",
                     worker.worker_id, worker.endpoint.empty() ? "" : " @ ",
                     worker.endpoint.c_str(), worker.respawns,
                     worker.reconnects, worker.redistributed,
                     worker.heartbeat_timeouts, worker.frames_retried);
      }
    }
    if (stats.checkpoint.enabled) {
      std::fprintf(stderr,
                   "# checkpoint: written=%zu resumed_passes=%zu "
                   "last_bytes=%llu write=%.3fs\n",
                   stats.checkpoint.checkpoints_written,
                   stats.checkpoint.resumed_passes,
                   static_cast<unsigned long long>(
                       stats.checkpoint.last_checkpoint_bytes),
                   stats.checkpoint.write_seconds);
    }
  }
  return exit_code;
}

int Run(int argc, char** argv) {
  int first_arg = 1;
  std::string command;
  if (argc > 1 && argv[1][0] != '-') {
    command = argv[1];
    first_arg = 2;
  }
  // `qarm rules dump ...` is a two-word command.
  if (command == "rules" && argc > 2 &&
      std::string(argv[2]) == "dump") {
    command = "rules dump";
    first_arg = 3;
  }
  // A run whose output outgrows memory (the miner's output can be
  // exponential in its input) ends with a diagnostic and a documented exit
  // code, never an abort: allocation failures on pool workers reach here
  // too, rethrown by ThreadPool::ParallelFor, and so do pool threads that
  // cannot start for want of memory.
  try {
    return RunCommand(argc, argv, command, first_arg);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "qarm: out of memory during %s\n",
                 command.empty() ? "mine" : command.c_str());
    return kExitOutOfMemory;
  }
}

}  // namespace
}  // namespace qarm

int main(int argc, char** argv) { return qarm::Run(argc, argv); }
