// Command-line flag parsing for the qarm binary, split out of main() so the
// whole argv -> MinerOptions path is unit-testable and fuzzable. Parsing is
// strict: numeric flags go through ParseDoubleFlag/ParseSizeFlag, which
// reject non-numeric text, trailing garbage, signs on unsigned flags, and
// out-of-range magnitudes instead of silently taking strtod/strtoull
// defaults.
#ifndef QARM_TOOLS_CLI_FLAGS_H_
#define QARM_TOOLS_CLI_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/options.h"

namespace qarm {

struct CliFlags {
  std::string input;
  std::string input_qbt;
  std::string output;
  std::string output_rules;  // mine: also write the rule set as QRS
  std::string schema;
  // serve / rules dump:
  std::string rules_file;          // --rules=FILE.qrs (or positional)
  std::string host = "127.0.0.1";  // serve bind address
  size_t port = 8080;              // serve port; 0 = ephemeral
  size_t serve_threads = 4;        // HTTP server threads
  size_t cache_mb = 64;            // result-cache budget; 0 disables
  std::string port_file;           // write the bound port here at startup
  double serve_seconds = 0;        // auto-stop after N seconds; 0 = run
  double min_conf = 0.0;           // rules dump filter
  std::string attr;                // rules dump / filter attribute name
  // One bare (non --flag) argument, e.g. `qarm rules dump FILE.qrs`.
  std::string positional;
  double minsup = 0.10;
  double minconf = 0.50;
  double maxsup = 0.40;
  double k = 2.0;
  double interest = 0.0;
  size_t intervals = 0;
  size_t threads = 1;
  size_t max_itemset_size = 0;  // mine: itemset-size cap (0 = unlimited)
  size_t workers = 1;  // mine --input-qbt: worker processes (1 = in-process)
  // mine --input-qbt over TCP: remote `qarm worker` endpoints, one
  // --worker=HOST:PORT per endpoint (repeatable, order = worker ids).
  std::vector<std::string> worker_endpoints;
  std::string listen;  // qarm worker: HOST:PORT to listen on (port 0 ok)
  // Hidden distributed-mining tuning knobs (sane defaults; tests shrink
  // them). The deadline and heartbeat apply to forked and TCP workers; the
  // connect budget to TCP endpoints.
  size_t dist_timeout_ms = 30000;
  size_t dist_heartbeat_ms = 1000;
  size_t dist_connect_attempts = 10;
  double dist_connect_backoff_ms = 50.0;
  size_t block_rows = 0;  // 0 = default (writer: 64K; miner: option default)
  size_t records = 0;
  uint64_t seed = 42;
  std::string method = "depth";
  std::string format = "text";
  std::string checkpoint;        // pass-boundary checkpoint file; "" = off
  size_t checkpoint_every = 1;   // checkpoint every Nth completed pass
  std::string inject_faults;     // hidden: deterministic I/O fault spec
  size_t kill_after_pass = 0;    // hidden: raise SIGKILL after pass N
  bool append = false;  // mine --input-qbt incrementally vs the checkpoint
  bool interesting_only = false;
  bool show_itemsets = false;
  bool show_stats = false;
  bool help = false;
};

// The usage text printed by --help and appended to flag errors.
const char* CliUsage();

// Strict numeric flag values. `flag` names the flag in the error message.
Result<double> ParseDoubleFlag(const std::string& flag,
                               const std::string& value);
Result<size_t> ParseSizeFlag(const std::string& flag,
                             const std::string& value);

// Parses argv[first_arg..argc) into flags. Unknown flags, malformed
// numeric values, and unknown --method/--format names are InvalidArgument.
Result<CliFlags> ParseCliArgs(int argc, char* const* argv, int first_arg);

// Builds the MinerOptions the flags describe and validates them
// (MinerOptions::Validate), so --k=1, --minsup=0, or --maxsup < --minsup
// come back as InvalidArgument with the offending range in the message.
Result<MinerOptions> MinerOptionsFromFlags(const CliFlags& flags);

}  // namespace qarm

#endif  // QARM_TOOLS_CLI_FLAGS_H_
