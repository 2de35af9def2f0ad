#include "tools/cli_flags.h"

#include <cstring>

#include "common/string_util.h"

namespace qarm {
namespace {

const char kUsage[] =
    "qarm — quantitative association rule miner (Srikant & Agrawal, SIGMOD "
    "'96)\n\n"
    "mine (default command):\n"
    "  --input=FILE          CSV file (header row required)\n"
    "  --input-qbt=FILE      mine a converted QBT file, streaming its blocks\n"
    "                        (bounded memory; no --schema needed)\n"
    "  --schema=SPEC         comma list: NAME:quant[:int|:double] | NAME:cat\n"
    "  --minsup=F            minimum support fraction        (default 0.10)\n"
    "  --minconf=F           minimum confidence              (default 0.50)\n"
    "  --maxsup=F            range-combination cap           (default 0.40)\n"
    "  --k=F                 partial completeness level, > 1 (default 2.0)\n"
    "  --interest=F          interest level R; 0 = off       (default 0)\n"
    "  --intervals=N         override Eq.2 interval count    (default auto)\n"
    "  --threads=N           scan threads; 0 = all cores     (default 1)\n"
    "  --max-itemset-size=N  mine itemsets (and rules) of at most N\n"
    "                        items; 0 = unlimited            (default 0)\n"
    "  --workers=N           forked worker processes for --input-qbt\n"
    "                        mining; each runs a `qarm worker` session\n"
    "                        (handshake, deadlines, heartbeats) over one\n"
    "                        contiguous block range, and the merged rules\n"
    "                        are bit-identical to --workers=1\n"
    "                                                        (default 1)\n"
    "  --worker=HOST:PORT    repeatable: mine over TCP against running\n"
    "                        `qarm worker` servers instead of forking; one\n"
    "                        worker per endpoint, rules bit-identical to\n"
    "                        --workers=1 (each server needs the same QBT\n"
    "                        file; excludes --workers)\n"
    "  --block-rows=N        rows per in-memory scan block   (default 65536)\n"
    "  --method=depth|width|kmeans  partitioning method      (default depth)\n"
    "  --format=text|json|csv  output format                 (default text)\n"
    "  --checkpoint=FILE     write a resumable checkpoint at each pass\n"
    "                        boundary; a rerun with the same flags resumes\n"
    "                        from it (SIGINT also checkpoints before exit)\n"
    "  --checkpoint-every=N  checkpoint every Nth pass       (default 1)\n"
    "  --append              incremental mine: reuse the completed run's\n"
    "                        checkpoint as a base and scan only the QBT\n"
    "                        blocks appended since (needs --input-qbt and\n"
    "                        --checkpoint; rules are bit-identical to a\n"
    "                        full mine, and a fresh base checkpoint is\n"
    "                        left behind for the next append)\n"
    "  --interesting-only    print only interesting rules\n"
    "  --itemsets            also print frequent itemsets\n"
    "  --stats               print run statistics (incl. per-pass I/O)\n"
    "\n"
    "qarm convert — partition, map, and write a CSV as a QBT file:\n"
    "  --input=FILE --schema=SPEC --output=FILE.qbt\n"
    "  [--minsup --k --intervals --method]   partitioning (fixed at convert)\n"
    "  [--block-rows=N]                      rows per QBT block (default "
    "65536)\n"
    "\n"
    "qarm append — map new CSV rows under an existing QBT file's metadata\n"
    "and append them as new blocks (existing bytes are never rewritten):\n"
    "  --input=FILE.csv --schema=SPEC --output=FILE.qbt\n"
    "  (labels/intervals are frozen at convert time; a value outside the\n"
    "  existing domain is an error — re-convert to admit it)\n"
    "\n"
    "qarm gen — stream the synthetic financial dataset to CSV:\n"
    "  --output=FILE.csv --records=N [--seed=N]\n"
    "\n"
    "mine extras:\n"
    "  --output-rules=FILE.qrs  also write the mined rule set as a binary\n"
    "                        QRS file for `qarm serve` / `qarm rules dump`\n"
    "\n"
    "qarm worker — serve QBT shards to a remote `qarm mine --worker=...`\n"
    "coordinator over TCP (fault-tolerant protocol: versioned handshake,\n"
    "per-frame CRCs and deadlines, liveness heartbeats):\n"
    "  --listen=HOST:PORT    bind address (port 0 = ephemeral; required)\n"
    "  --input-qbt=FILE      the QBT file to serve (must byte-match the\n"
    "                        coordinator's — checked at handshake)\n"
    "  [--port-file=FILE]    write the bound port here once listening\n"
    "  [--serve-seconds=F]   stop after F seconds; 0 = run until SIGINT\n"
    "\n"
    "qarm serve — serve a mined rule set over HTTP:\n"
    "  --rules=FILE.qrs      rule set to load (required)\n"
    "  [--host=ADDR]         bind address                  (default "
    "127.0.0.1)\n"
    "  [--port=N]            port; 0 = ephemeral           (default 8080)\n"
    "  [--serve-threads=N]   HTTP server threads           (default 4)\n"
    "  [--cache-mb=N]        result-cache budget in MiB; 0 disables\n"
    "                                                      (default 64)\n"
    "  [--port-file=FILE]    write the bound port here once listening\n"
    "  [--serve-seconds=F]   stop after F seconds; 0 = run until SIGINT\n"
    "  endpoints: /match /topk /rules /statz /healthz\n"
    "\n"
    "qarm rules dump FILE.qrs — inspect a rule-set file:\n"
    "  [--format=text|json]  output format                 (default text)\n"
    "  [--min-conf=F]        only rules with confidence >= F\n"
    "  [--attr=NAME]         only rules mentioning the attribute\n"
    "  [--interesting-only]  only rules past the interest filter\n"
    "\n"
    "exit codes: 0 ok; 1 I/O or data error; 2 bad flags; 3 mine found no\n"
    "rules; 4 out of memory; 130 interrupted (SIGINT)\n";

bool MatchFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

Status FlagError(const std::string& flag, const Status& cause) {
  return Status::InvalidArgument("bad --" + flag + ": " + cause.message());
}

}  // namespace

const char* CliUsage() { return kUsage; }

Result<double> ParseDoubleFlag(const std::string& flag,
                               const std::string& value) {
  Result<double> parsed = ParseDouble(value);
  if (!parsed.ok()) return FlagError(flag, parsed.status());
  return *parsed;
}

Result<size_t> ParseSizeFlag(const std::string& flag,
                             const std::string& value) {
  Result<uint64_t> parsed = ParseUint64(value);
  if (!parsed.ok()) return FlagError(flag, parsed.status());
  // size_t is 64-bit on every supported host (the storage layer already
  // requires one), so the cast cannot truncate.
  return static_cast<size_t>(*parsed);
}

Result<CliFlags> ParseCliArgs(int argc, char* const* argv, int first_arg) {
  CliFlags flags;
  for (int i = first_arg; i < argc; ++i) {
    std::string value;
    if (MatchFlag(argv[i], "input", &value)) {
      flags.input = value;
    } else if (MatchFlag(argv[i], "input-qbt", &value)) {
      flags.input_qbt = value;
    } else if (MatchFlag(argv[i], "output", &value)) {
      flags.output = value;
    } else if (MatchFlag(argv[i], "output-rules", &value)) {
      flags.output_rules = value;
    } else if (MatchFlag(argv[i], "rules", &value)) {
      flags.rules_file = value;
    } else if (MatchFlag(argv[i], "host", &value)) {
      flags.host = value;
    } else if (MatchFlag(argv[i], "port", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.port, ParseSizeFlag("port", value));
      if (flags.port > 65535) {
        return Status::InvalidArgument("bad --port: " + value +
                                       " (max 65535)");
      }
    } else if (MatchFlag(argv[i], "serve-threads", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.serve_threads,
                            ParseSizeFlag("serve-threads", value));
    } else if (MatchFlag(argv[i], "cache-mb", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.cache_mb, ParseSizeFlag("cache-mb", value));
    } else if (MatchFlag(argv[i], "port-file", &value)) {
      flags.port_file = value;
    } else if (MatchFlag(argv[i], "serve-seconds", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.serve_seconds,
                            ParseDoubleFlag("serve-seconds", value));
    } else if (MatchFlag(argv[i], "min-conf", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.min_conf,
                            ParseDoubleFlag("min-conf", value));
    } else if (MatchFlag(argv[i], "attr", &value)) {
      flags.attr = value;
    } else if (MatchFlag(argv[i], "block-rows", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.block_rows,
                            ParseSizeFlag("block-rows", value));
    } else if (MatchFlag(argv[i], "records", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.records, ParseSizeFlag("records", value));
    } else if (MatchFlag(argv[i], "seed", &value)) {
      Result<uint64_t> seed = ParseUint64(value);
      if (!seed.ok()) return FlagError("seed", seed.status());
      flags.seed = *seed;
    } else if (MatchFlag(argv[i], "schema", &value)) {
      flags.schema = value;
    } else if (MatchFlag(argv[i], "minsup", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.minsup, ParseDoubleFlag("minsup", value));
    } else if (MatchFlag(argv[i], "minconf", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.minconf, ParseDoubleFlag("minconf", value));
    } else if (MatchFlag(argv[i], "maxsup", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.maxsup, ParseDoubleFlag("maxsup", value));
    } else if (MatchFlag(argv[i], "k", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.k, ParseDoubleFlag("k", value));
    } else if (MatchFlag(argv[i], "interest", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.interest,
                            ParseDoubleFlag("interest", value));
    } else if (MatchFlag(argv[i], "intervals", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.intervals,
                            ParseSizeFlag("intervals", value));
    } else if (MatchFlag(argv[i], "threads", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.threads, ParseSizeFlag("threads", value));
    } else if (MatchFlag(argv[i], "max-itemset-size", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.max_itemset_size,
                            ParseSizeFlag("max-itemset-size", value));
    } else if (MatchFlag(argv[i], "workers", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.workers, ParseSizeFlag("workers", value));
    } else if (MatchFlag(argv[i], "worker", &value)) {
      if (value.empty()) {
        return Status::InvalidArgument("bad --worker: empty endpoint");
      }
      flags.worker_endpoints.push_back(value);
    } else if (MatchFlag(argv[i], "listen", &value)) {
      flags.listen = value;
    } else if (MatchFlag(argv[i], "dist-timeout-ms", &value)) {
      // Hidden: per-frame read/write deadline for forked and TCP workers
      // (tests shrink it).
      QARM_ASSIGN_OR_RETURN(flags.dist_timeout_ms,
                            ParseSizeFlag("dist-timeout-ms", value));
    } else if (MatchFlag(argv[i], "dist-heartbeat-ms", &value)) {
      // Hidden: forked and TCP workers' liveness interval during long
      // passes.
      QARM_ASSIGN_OR_RETURN(flags.dist_heartbeat_ms,
                            ParseSizeFlag("dist-heartbeat-ms", value));
    } else if (MatchFlag(argv[i], "dist-connect-attempts", &value)) {
      // Hidden: connect retry budget per endpoint.
      QARM_ASSIGN_OR_RETURN(flags.dist_connect_attempts,
                            ParseSizeFlag("dist-connect-attempts", value));
    } else if (MatchFlag(argv[i], "dist-connect-backoff-ms", &value)) {
      // Hidden: initial connect retry backoff.
      QARM_ASSIGN_OR_RETURN(
          flags.dist_connect_backoff_ms,
          ParseDoubleFlag("dist-connect-backoff-ms", value));
    } else if (MatchFlag(argv[i], "method", &value)) {
      if (value != "depth" && value != "width" && value != "kmeans") {
        return Status::InvalidArgument("unknown --method: " + value);
      }
      flags.method = value;
    } else if (MatchFlag(argv[i], "checkpoint", &value)) {
      flags.checkpoint = value;
    } else if (MatchFlag(argv[i], "checkpoint-every", &value)) {
      QARM_ASSIGN_OR_RETURN(flags.checkpoint_every,
                            ParseSizeFlag("checkpoint-every", value));
    } else if (MatchFlag(argv[i], "inject-faults", &value)) {
      // Hidden (absent from --help): deterministic I/O fault injection for
      // recovery testing. Spec grammar lives in storage/fault_injection.h.
      flags.inject_faults = value;
    } else if (MatchFlag(argv[i], "kill-after-pass", &value)) {
      // Hidden: raise SIGKILL right after pass N's checkpoint, simulating a
      // hard crash for the crash-resume smoke test.
      QARM_ASSIGN_OR_RETURN(flags.kill_after_pass,
                            ParseSizeFlag("kill-after-pass", value));
    } else if (MatchFlag(argv[i], "format", &value)) {
      if (value != "text" && value != "json" && value != "csv") {
        return Status::InvalidArgument("unknown --format: " + value);
      }
      flags.format = value;
    } else if (std::strcmp(argv[i], "--append") == 0) {
      flags.append = true;
    } else if (std::strcmp(argv[i], "--interesting-only") == 0) {
      flags.interesting_only = true;
    } else if (std::strcmp(argv[i], "--itemsets") == 0) {
      flags.show_itemsets = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      flags.show_stats = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      flags.help = true;
    } else if (argv[i][0] != '-') {
      // One bare argument, e.g. the file of `qarm rules dump FILE.qrs`.
      if (!flags.positional.empty()) {
        return Status::InvalidArgument(
            std::string("unexpected argument: ") + argv[i]);
      }
      flags.positional = argv[i];
    } else {
      return Status::InvalidArgument(std::string("unknown flag: ") + argv[i]);
    }
  }
  return flags;
}

Result<MinerOptions> MinerOptionsFromFlags(const CliFlags& flags) {
  MinerOptions options;
  options.minsup = flags.minsup;
  options.minconf = flags.minconf;
  options.max_support = flags.maxsup;
  options.partial_completeness = flags.k;
  options.interest_level = flags.interest;
  options.num_intervals_override = flags.intervals;
  options.num_threads = flags.threads;
  options.max_itemset_size = flags.max_itemset_size;
  options.num_workers = flags.workers;
  options.worker_endpoints = flags.worker_endpoints;
  options.dist_io_timeout_ms = flags.dist_timeout_ms;
  options.dist_heartbeat_ms = flags.dist_heartbeat_ms;
  options.dist_connect_attempts = flags.dist_connect_attempts;
  options.dist_connect_backoff_ms = flags.dist_connect_backoff_ms;
  if (flags.block_rows > 0) options.stream_block_rows = flags.block_rows;
  if (flags.method == "width") {
    options.partition_method = PartitionMethod::kEquiWidth;
  } else if (flags.method == "kmeans") {
    options.partition_method = PartitionMethod::kKMeans;
  }
  options.checkpoint_path = flags.checkpoint;
  options.checkpoint_every_pass = flags.checkpoint_every;
  options.append_mode = flags.append;
  options.inject_faults_spec = flags.inject_faults;
  // --kill-after-pass stops mining cleanly after pass N (the checkpoint is
  // written first); the CLI then turns the stop into a real SIGKILL.
  options.stop_after_pass = flags.kill_after_pass;
  QARM_RETURN_NOT_OK(options.Validate());
  return options;
}

}  // namespace qarm
