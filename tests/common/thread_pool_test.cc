#include "common/thread_pool.h"

#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

namespace qarm {
namespace {

TEST(ResolveNumThreadsTest, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
}

TEST(SplitRangeTest, CoversRangeWithoutGaps) {
  for (size_t n : {0u, 1u, 5u, 16u, 17u, 1000u}) {
    for (size_t chunks : {1u, 2u, 3u, 8u, 64u}) {
      std::vector<IndexRange> ranges = SplitRange(n, chunks);
      if (n == 0) {
        EXPECT_TRUE(ranges.empty());
        continue;
      }
      EXPECT_EQ(ranges.size(), std::min(n, chunks));
      size_t expected_begin = 0;
      for (const IndexRange& range : ranges) {
        EXPECT_EQ(range.begin, expected_begin);
        EXPECT_GT(range.size(), 0u);
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, n);
      // Near-equal: sizes differ by at most one.
      EXPECT_LE(ranges.front().size() - ranges.back().size(), 1u);
    }
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const size_t num_tasks = 257;
    std::vector<std::atomic<int>> hits(num_tasks);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(num_tasks, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < num_tasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (int job = 0; job < 50; ++job) {
    pool.ParallelFor(16, [&](size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50u * (16u * 17u / 2));
}

TEST(ThreadPoolTest, ShardedSumMatchesSerial) {
  const size_t n = 100000;
  std::vector<uint32_t> data(n);
  std::iota(data.begin(), data.end(), 0u);
  const uint64_t expected =
      std::accumulate(data.begin(), data.end(), uint64_t{0});

  ThreadPool pool(4);
  std::vector<IndexRange> shards = SplitRange(n, pool.num_threads());
  std::vector<uint64_t> partial(shards.size(), 0);
  pool.ParallelFor(shards.size(), [&](size_t s) {
    uint64_t local = 0;
    for (size_t i = shards[s].begin; i < shards[s].end; ++i) local += data[i];
    partial[s] = local;
  });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), uint64_t{0}),
            expected);
}

TEST(ThreadPoolTest, ZeroAndOneTasks) {
  ThreadPool pool(3);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, TaskExceptionIsRethrownOnCaller) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](size_t i) {
                                  ++calls;
                                  if (i == 5) throw std::bad_alloc();
                                }),
               std::bad_alloc);
  EXPECT_GE(calls.load(), 1);
  EXPECT_LE(calls.load(), 64);
  // The pool survives a failed job.
  std::atomic<int> after{0};
  pool.ParallelFor(16, [&](size_t) { ++after; });
  EXPECT_EQ(after.load(), 16);
}

// The process's mapped bytes, from /proc/self/statm.
size_t MappedBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  unsigned long pages = 0;
  if (f == nullptr || std::fscanf(f, "%lu", &pages) != 1) std::abort();
  std::fclose(f);
  return pages * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

// Exits 0 if ThreadPool(3) throws std::bad_alloc under an address-space
// limit that leaves room for one worker's stack but not two; 1 if it
// constructs, 2 on any other exception. A half-built pool must join the
// worker that did start (else std::terminate, SIGABRT) and report the
// failed start as an allocation failure.
[[noreturn]] void ConstructPoolUnderTightLimit() {
  ::alarm(30);  // a hang fails the test too
  const size_t base = MappedBytes();
  size_t per_thread = 0;
  {
    ThreadPool probe(2);
    per_thread = MappedBytes() - base;
  }
  rlimit limit{};
  limit.rlim_cur = limit.rlim_max = base + per_thread + per_thread / 2;
  if (::setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(3);
  try {
    ThreadPool pool(3);
  } catch (const std::bad_alloc&) {
    std::_Exit(0);
  } catch (...) {
    std::_Exit(2);
  }
  std::_Exit(1);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QARM_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QARM_SANITIZED_BUILD 1
#endif
#endif

TEST(ThreadPoolDeathTest, WorkerThatCannotStartThrowsBadAlloc) {
#ifdef QARM_SANITIZED_BUILD
  GTEST_SKIP() << "sanitizer runtimes map memory of their own per thread";
#endif
  EXPECT_EXIT(ConstructPoolUnderTightLimit(), ::testing::ExitedWithCode(0),
              "");
}

}  // namespace
}  // namespace qarm
