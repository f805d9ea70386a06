// Fixed-size worker pool for intra-broker parallelism.
//
// The pool exposes exactly one primitive, parallel_for: run fn(0..n-1)
// across the workers plus the calling thread and block until every index
// has completed. Tasks are claimed from a shared atomic cursor, so the
// *assignment* of indices to threads is nondeterministic — callers that
// need deterministic output (the routing table's match split does) must
// write each task's result to its own slot and merge in index order
// afterwards.
//
// A pool built with zero threads spawns nothing and runs parallel_for
// inline on the caller, which keeps `worker_threads = 0` configurations
// free of any threading machinery (the ablation baseline).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace reef::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = inline mode, no threads at all).
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers. Must not race a parallel_for in progress.
  ~ThreadPool();

  std::size_t thread_count() const noexcept { return threads_.size(); }

  /// Runs fn(i) for every i in [0, n), distributing indices over the
  /// workers and the calling thread, and returns when all have finished.
  /// `fn` must be safe to invoke concurrently from several threads. If any
  /// invocation throws, the first exception is rethrown here (remaining
  /// indices still run). Not reentrant: one parallel_for at a time.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims indices from next_ and runs them until the job is exhausted.
  void drain_job(const std::function<void(std::size_t)>& fn, std::size_t n);

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;

  // Current job, all written under mutex_ in parallel_for before workers
  // are woken. `remaining_` counts unfinished indices; `active_` counts
  // workers currently inside drain_job so parallel_for never returns (and
  // never invalidates job_) while a late-waking worker still holds it.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_size_ = 0;
  std::uint64_t generation_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> remaining_{0};
  std::size_t active_ = 0;
  std::exception_ptr first_error_;

  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace reef::util
