// Fixed-size worker pool. In the GPU-simulation substrate one worker plays
// the role of one concurrently-resident thread block (see DESIGN.md §2), so
// the pool exposes the worker index to each task.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.hpp"

namespace brickdl {

class ThreadPool {
 public:
  /// Task receives the index of the worker executing it, in [0, size()).
  using Task = std::function<void(int worker)>;

  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueue one task. May be called from worker threads.
  void submit(Task task);

  /// Run `n` index tasks f(0..n-1) across the pool and wait for all of them.
  /// Must be called from outside the pool. If a task throws, the remaining
  /// unclaimed indices are abandoned and the first exception is rethrown
  /// here once every worker has drained (no task is left running).
  ///
  /// `grain` > 1 claims indices in chunks of that size off one atomic cursor
  /// (one claim + one trace span per chunk instead of per index), which is
  /// the difference between queue-bound and compute-bound when `n` is large
  /// and the per-index work is small. Semantics are unchanged: an exception
  /// abandons the rest of its chunk and all unclaimed work, and the first
  /// exception is rethrown after every worker drains.
  void parallel_for(i64 n, const std::function<void(i64 index, int worker)>& f,
                    i64 grain = 1);

  /// Chunked form: f(begin, end, worker) is called once per claimed chunk
  /// [begin, end) of [0, n), chunk size `grain`. parallel_for is a wrapper
  /// over this. It wakes min(size(), ceil(n / grain)) workers, so a single
  /// chunk runs on one worker and leaves the rest asleep.
  void parallel_for_ranges(
      i64 n, i64 grain,
      const std::function<void(i64 begin, i64 end, int worker)>& f);

  /// Block until the queue is empty and all workers are idle.
  void wait_idle();

 private:
  void worker_loop(int worker);

  std::vector<std::thread> threads_;
  std::deque<Task> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  int active_ = 0;
  bool stop_ = false;
};

}  // namespace brickdl
