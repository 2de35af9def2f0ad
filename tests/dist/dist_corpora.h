// Shared mining corpora for the distributed test suites. Each corpus is a
// mined QBT on disk plus the options that partitioned it, built once per
// test binary (static) and shared by every worker x thread matrix — the
// fork-mode suite, the TCP suite, and the fault suites all compare the
// same three workloads (financial, taxonomy, missing values) against the
// same single-process baseline. SpawnDyingWorker forks a worker-server
// process that dies mid-run like `kill -9`.
#ifndef QARM_TESTS_DIST_DIST_CORPORA_H_
#define QARM_TESTS_DIST_DIST_CORPORA_H_

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/random.h"
#include "core/miner.h"
#include "dist/worker_server.h"
#include "partition/mapper.h"
#include "partition/taxonomy.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "table/datagen.h"
#include "table/table.h"
#include "testutil.h"

namespace qarm {
namespace disttest {

// A mined corpus on disk plus the options that partitioned it.
struct DistCorpus {
  std::string qbt_path;
  MinerOptions options;
  size_t num_blocks = 0;
};

inline DistCorpus BuildCorpus(const Table& table, const MinerOptions& options,
                              size_t rows_per_block, const std::string& tag) {
  MapOptions map_options;
  map_options.partial_completeness = options.partial_completeness;
  map_options.minsup = options.minsup;
  map_options.num_intervals_override = options.num_intervals_override;
  map_options.taxonomies = options.taxonomies;
  auto mapped = MapTable(table, map_options);
  QARM_CHECK(mapped.ok());
  DistCorpus corpus;
  // The pid keeps concurrent ctest processes (each gtest TEST is its own
  // invocation of this binary) from rewriting each other's corpus files
  // mid-mmap — WriteQbt writes in place, not via atomic rename.
  corpus.qbt_path = ::testing::TempDir() + "/dist_" + tag + "_" +
                    std::to_string(::getpid()) + ".qbt";
  corpus.options = options;
  QbtWriteOptions write_options;
  write_options.rows_per_block = rows_per_block;
  QARM_CHECK(WriteQbt(*mapped, corpus.qbt_path, write_options).ok());
  auto source = QbtFileSource::Open(corpus.qbt_path);
  QARM_CHECK(source.ok());
  corpus.num_blocks = (*source)->num_blocks();
  return corpus;
}

// A counter budget that the financial corpus's grids overflow, so its
// plans count groups by member scan too.
inline constexpr uint64_t kTinyCounterBudget = 256;

inline const DistCorpus& FinancialCorpus() {
  static const DistCorpus* corpus = []() {
    MinerOptions options;
    options.minsup = 0.20;
    options.minconf = 0.40;
    options.max_support = 0.40;
    options.partial_completeness = 3.0;
    options.interest_level = 1.2;
    return new DistCorpus(BuildCorpus(MakeFinancialDataset(1500, 91), options,
                                      /*rows_per_block=*/128, "financial"));
  }();
  return *corpus;
}

inline const DistCorpus& TaxonomyCorpus() {
  static const DistCorpus* corpus = []() {
    Schema schema =
        Schema::Make(
            {{"drink", AttributeKind::kCategorical, ValueType::kString},
             {"pastry", AttributeKind::kCategorical, ValueType::kString}})
            .value();
    Table table(schema);
    Rng rng(99);
    for (size_t i = 0; i < 3000; ++i) {
      double u = rng.UniformDouble();
      std::string drink;
      std::string pastry;
      if (u < 0.10) {
        drink = "coffee";
        pastry = "yes";
      } else if (u < 0.20) {
        drink = "tea";
        pastry = "yes";
      } else if (u < 0.60) {
        drink = "soda";
        pastry = rng.Bernoulli(0.1) ? "yes" : "no";
      } else {
        drink = "juice";
        pastry = rng.Bernoulli(0.1) ? "yes" : "no";
      }
      table.AppendRowUnchecked(
          {Value(std::move(drink)), Value(std::move(pastry))});
    }
    MinerOptions options;
    options.minsup = 0.15;
    options.minconf = 0.60;
    options.taxonomies.emplace_back(
        "drink", Taxonomy::Make({{"hot", "drinks"},
                                 {"cold", "drinks"},
                                 {"coffee", "hot"},
                                 {"tea", "hot"},
                                 {"soda", "cold"},
                                 {"juice", "cold"}})
                     .value());
    return new DistCorpus(
        BuildCorpus(table, options, /*rows_per_block=*/256, "taxonomy"));
  }();
  return *corpus;
}

inline const DistCorpus& MissingValuesCorpus() {
  static const DistCorpus* corpus = []() {
    Schema schema =
        Schema::Make({{"x", AttributeKind::kQuantitative, ValueType::kInt64},
                      {"c", AttributeKind::kCategorical, ValueType::kString}})
            .value();
    Table table(schema);
    Rng rng(7);
    for (size_t i = 0; i < 1200; ++i) {
      int64_t x = rng.UniformInt(0, 9);
      std::vector<Value> row(2);
      row[0] = rng.Bernoulli(0.2) ? Value::Null() : Value(x);
      row[1] = rng.Bernoulli(0.2)
                   ? Value::Null()
                   : Value(x < 5 ? std::string("lo") : std::string("hi"));
      table.AppendRowUnchecked(row);
    }
    MinerOptions options;
    options.minsup = 0.10;
    options.minconf = 0.40;
    options.num_intervals_override = 5;
    return new DistCorpus(
        BuildCorpus(table, options, /*rows_per_block=*/128, "missing"));
  }();
  return *corpus;
}

inline MiningResult MustMineStreamed(const DistCorpus& corpus,
                                     size_t threads) {
  MinerOptions options = corpus.options;
  options.num_threads = threads;
  auto source = QbtFileSource::Open(corpus.qbt_path);
  QARM_CHECK(source.ok());
  auto result = QuantitativeRuleMiner(options).MineStreamed(**source);
  QARM_CHECK(result.ok());
  return std::move(result).value();
}

// A real worker-server process, forked with a kill-switch env var so its
// first session dies like `kill -9` partway through the pass sequence.
// Forked before any in-process server spawns threads.
struct ChildWorker {
  pid_t pid = -1;
  uint16_t port = 0;

  ChildWorker() = default;
  // Moving hands the process over; only the last owner kills it.
  ChildWorker(ChildWorker&& other) noexcept
      : pid(std::exchange(other.pid, -1)), port(other.port) {}

  ~ChildWorker() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
};

inline ChildWorker SpawnDyingWorker(const std::string& qbt_path,
                             const char* frames) {
  int pipe_fds[2];
  QARM_CHECK(::pipe(pipe_fds) == 0);
  const pid_t pid = ::fork();
  QARM_CHECK(pid >= 0);
  if (pid == 0) {
    ::close(pipe_fds[0]);
    ::setenv("QARM_DIST_TEST_EXIT_AFTER_FRAMES", frames, 1);
    WorkerServerOptions options;
    options.qbt_path = qbt_path;
    auto server = WorkerServer::Start(options);
    if (!server.ok()) std::_Exit(3);
    const uint16_t port = (*server)->port();
    if (::write(pipe_fds[1], &port, sizeof(port)) != sizeof(port)) {
      std::_Exit(3);
    }
    ::close(pipe_fds[1]);
    for (;;) ::pause();  // the kill switch ends the process
  }
  ::close(pipe_fds[1]);
  ChildWorker child;
  child.pid = pid;
  QARM_CHECK(::read(pipe_fds[0], &child.port, sizeof(child.port)) ==
             static_cast<ssize_t>(sizeof(child.port)));
  ::close(pipe_fds[0]);
  return child;
}

}  // namespace disttest
}  // namespace qarm

#endif  // QARM_TESTS_DIST_DIST_CORPORA_H_
