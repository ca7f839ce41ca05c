// Fixed-size task pool: independent tasks off one mutex-guarded queue, for
// long-lived jobs such as the serving tier's engine runners. Engine runs
// fork and join on a WorkerTeam (util/worker_team.hpp) instead.
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
