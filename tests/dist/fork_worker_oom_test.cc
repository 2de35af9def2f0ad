// A forked worker whose session throws — here std::bad_alloc, as when the
// worker runs out of memory — must end as a failed worker and nothing
// more. The child was forked deep inside the coordinator's stack, so an
// exception leaving its session would unwind those inherited frames: the
// child's copy of the worker pool would SIGKILL the sibling workers and
// the child would go on running coordinator (here: test) code.
//
// This binary replaces the global operator new so that one allocation of
// kFailingSize bytes or more, made in a process other than the test's own,
// throws. It is a separate test executable because the replacement is
// process-wide.
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "core/miner.h"
#include "dist/dist_corpora.h"
#include "dist/dist_miner.h"

namespace {

// Shared with every forked child (MAP_SHARED), so the children draw from
// one budget of injected failures and report escapes back.
struct SharedState {
  std::atomic<int> failures_left{0};
  std::atomic<int> escaped{0};
};

// Large enough to skip the handshake's small buffers and land in the
// session's block decoding and counting.
constexpr std::size_t kFailingSize = 4096;
constexpr int kMaxFd = 256;

SharedState* g_shared = nullptr;
// 0 disarms the injection; otherwise the process that must never fail.
std::atomic<pid_t> g_coordinator_pid{0};

SharedState* Shared() {
  if (g_shared == nullptr) {
    void* mem = ::mmap(nullptr, sizeof(SharedState), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    QARM_CHECK(mem != MAP_FAILED);
    g_shared = new (mem) SharedState();
  }
  return g_shared;
}

// Duplicates every open descriptor, so this process's channel to the
// coordinator stays open until the process exits. The coordinator then
// notices the failed worker only once the child is gone, whichever way it
// goes — it cannot SIGKILL a child halfway through an escape.
void HoldDescriptorsUntilExit() {
  bool open[kMaxFd] = {};
  for (int fd = 3; fd < kMaxFd; ++fd) open[fd] = ::fcntl(fd, F_GETFD) != -1;
  for (int fd = 3; fd < kMaxFd; ++fd) {
    if (open[fd]) ::fcntl(fd, F_DUPFD_CLOEXEC, kMaxFd);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  const pid_t coordinator = g_coordinator_pid.load(std::memory_order_relaxed);
  if (size >= kFailingSize && coordinator != 0 && ::getpid() != coordinator &&
      g_shared->failures_left.load() > 0 &&
      g_shared->failures_left.fetch_sub(1) > 0) {
    HoldDescriptorsUntilExit();
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// GCC takes the free() of memory from this operator new for a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace qarm {
namespace {

using disttest::FinancialCorpus;
using disttest::MustMineStreamed;
using testutil::SameRules;

// One worker's session throws std::bad_alloc. Its child exits, the
// coordinator respawns it and replays its shard, and the rules match the
// single-process run. The child never unwinds into the coordinator's
// frames, so the other worker is never killed and respawned.
TEST(ForkWorkerOomTest, ThrowingSessionFailsOnlyItsOwnWorker) {
  const MiningResult baseline = MustMineStreamed(FinancialCorpus(), 1);
  MinerOptions options = FinancialCorpus().options;
  options.num_workers = 2;
  options.num_threads = 1;
  SharedState* shared = Shared();
  shared->failures_left.store(1);
  const pid_t coordinator = ::getpid();
  g_coordinator_pid.store(coordinator);
  auto mine = [&]() -> Result<MiningResult> {
    try {
      return MineDistributedQbt(FinancialCorpus().qbt_path, options);
    } catch (...) {
      // Only a child that unwound out of its session gets here.
      if (::getpid() != coordinator) {
        shared->escaped.fetch_add(1);
        std::_Exit(1);
      }
      throw;
    }
  };
  Result<MiningResult> result = mine();
  g_coordinator_pid.store(0);
  EXPECT_EQ(shared->failures_left.load(), 0);  // the failure was injected
  EXPECT_EQ(shared->escaped.load(), 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameRules(*result, baseline));
  EXPECT_EQ(result->stats.dist.num_workers, 2u);
  EXPECT_EQ(result->stats.dist.workers_respawned, 1u);
}

}  // namespace
}  // namespace qarm
