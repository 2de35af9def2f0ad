// A small fixed-size worker pool for data-parallel scans. The mining hot
// paths (pass-1 value counting, the per-pass support-counting scan) shard
// the record range into contiguous chunks and run one chunk per worker; the
// calling thread participates, so a pool of N threads means N-1 spawned
// workers. Determinism note: QARM only ever reduces integer counters across
// workers, so any schedule produces identical results.
#ifndef QARM_COMMON_THREAD_POOL_H_
#define QARM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qarm {

// Resolves a user-facing thread-count option: 0 means one thread per
// hardware core (never less than 1), any other value is taken as-is.
size_t ResolveNumThreads(size_t requested);

// One contiguous shard of an index range.
struct IndexRange {
  size_t begin = 0;
  size_t end = 0;  // exclusive
  size_t size() const { return end - begin; }
};

// Splits [0, n) into at most `chunks` contiguous near-equal ranges (the
// first n % chunks ranges are one element longer). Returns min(chunks, n)
// non-empty ranges; empty when n == 0.
std::vector<IndexRange> SplitRange(size_t n, size_t chunks);

// Fixed-size pool. ParallelFor dispatches task indices to the workers and
// the calling thread and blocks until all tasks complete. Not reentrant:
// tasks must not call ParallelFor on the same pool.
class ThreadPool {
 public:
  // `num_threads` >= 1 is the total parallelism (the constructor spawns
  // num_threads - 1 workers; 1 means everything runs on the caller). A
  // worker that cannot start for want of memory throws std::bad_alloc.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  // Runs fn(i) for every i in [0, num_tasks). Tasks are claimed dynamically
  // (an atomic cursor), so uneven task costs still balance. If a task
  // throws (e.g. std::bad_alloc), the tasks not yet started are skipped and
  // the first exception is rethrown on the caller once every task has
  // retired — a worker's exception never reaches std::terminate.
  void ParallelFor(size_t num_tasks, const std::function<void(size_t)>& fn);

 private:
  // All state of one ParallelFor call. Workers hold a shared_ptr while
  // draining it, so a straggler waking after the call returned only ever
  // touches its own (exhausted) job, never a newer one.
  struct Job;

  void WorkerLoop();
  void StopWorkers();
  void RunTasks(Job* job);

  const size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_cv_;  // workers wait for a new job
  std::condition_variable done_cv_;  // the caller waits for completion
  bool stop_ = false;
  uint64_t job_generation_ = 0;  // bumped per ParallelFor call
  std::shared_ptr<Job> job_;
};

}  // namespace qarm

#endif  // QARM_COMMON_THREAD_POOL_H_
