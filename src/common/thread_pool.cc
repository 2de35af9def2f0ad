#include "common/thread_pool.h"

#include <atomic>
#include <exception>
#include <new>
#include <system_error>

#include "common/macros.h"

namespace qarm {

size_t ResolveNumThreads(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::vector<IndexRange> SplitRange(size_t n, size_t chunks) {
  std::vector<IndexRange> ranges;
  if (n == 0 || chunks == 0) return ranges;
  if (chunks > n) chunks = n;
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  size_t begin = 0;
  for (size_t i = 0; i < chunks; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    ranges.push_back(IndexRange{begin, begin + len});
    begin += len;
  }
  QARM_CHECK_EQ(begin, n);
  return ranges;
}

struct ThreadPool::Job {
  std::function<void(size_t)> fn;
  size_t num_tasks = 0;
  std::atomic<size_t> next_task{0};
  std::atomic<size_t> pending_tasks{0};
  // The first exception a task threw; once set, the remaining tasks are
  // claimed and retired without running.
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(size_t num_threads) : num_threads_(num_threads) {
  QARM_CHECK_GE(num_threads_, 1u);
  workers_.reserve(num_threads_ - 1);
  try {
    for (size_t i = 0; i + 1 < num_threads_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (const std::system_error& error) {
    // A thread failed to start. Join the ones that did before the error
    // leaves, since no destructor runs for a half-built pool. A thread
    // whose stack cannot be mapped is an allocation failure, and is
    // reported as one.
    StopWorkers();
    if (error.code() == std::errc::resource_unavailable_try_again ||
        error.code() == std::errc::not_enough_memory) {
      throw std::bad_alloc();
    }
    throw;
  } catch (...) {
    StopWorkers();
    throw;
  }
}

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunTasks(Job* job) {
  while (true) {
    const size_t i = job->next_task.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->num_tasks) break;
    if (!job->failed.load(std::memory_order_relaxed)) {
      try {
        job->fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job->error_mu);
        if (job->error == nullptr) job->error = std::current_exception();
        job->failed.store(true, std::memory_order_relaxed);
      }
    }
    if (job->pending_tasks.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task done: wake the caller. Taking the lock orders the notify
      // after the caller's predicate check began.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [&] {
        return stop_ || job_generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = job_generation_;
      job = job_;
    }
    if (job != nullptr) RunTasks(job.get());
  }
}

void ThreadPool::ParallelFor(size_t num_tasks,
                             const std::function<void(size_t)>& fn) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1) {
    for (size_t i = 0; i < num_tasks; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->num_tasks = num_tasks;
  job->pending_tasks.store(num_tasks, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++job_generation_;
  }
  wake_cv_.notify_all();
  RunTasks(job.get());
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return job->pending_tasks.load(std::memory_order_acquire) == 0;
  });
  lock.unlock();
  // Every task has retired, so no worker touches `error` any more.
  if (job->error != nullptr) std::rethrow_exception(job->error);
}

}  // namespace qarm
